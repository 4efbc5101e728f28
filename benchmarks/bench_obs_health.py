#!/usr/bin/env python
"""Observability overhead benchmark: trainer steps with the full health
stack on vs. everything off.

The *off* segments run dark (no tracer, registry, monitor, or flight
recorder); the *on* segments run under ``obs.monitored()`` (tracing +
metrics + health detectors + flight recorder).  ``--max-overhead 0.05``
turns the fraction of a training step spent feeding the health stack
into a hard CI failure on ``derived.overhead_frac_paired``.  The timing
discipline, the sidecar schema (``BENCH_obs_health.json``) and the flags
are ``overhead_gate.py``'s.

Standalone::

    PYTHONPATH=src python benchmarks/bench_obs_health.py --smoke \\
        --max-overhead 0.05
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import overhead_gate  # noqa: E402  (puts src/ on the path)
from repro import obs  # noqa: E402

if __name__ == "__main__":
    sys.exit(overhead_gate.main("obs_health", "health", obs.monitored,
                                description=__doc__.splitlines()[0]))
