#!/usr/bin/env python
"""ABFT overhead benchmark: training steps with GEMM checksums on vs off.

The *on* segments run under ``abft_guard()`` (column-checksum
verification after every guarded GEMM in the attention hot path).  The
training step is the operational unit the defense ships inside (the
guarded :class:`~repro.train.Trainer` arms ABFT around whole steps), so
the budget is expressed per step: ``--max-overhead 0.10`` turns the
overhead budget into a hard CI failure on
``derived.overhead_frac_paired``.  The timing discipline, the sidecar
schema (``BENCH_sdc.json``) and the flags are ``overhead_gate.py``'s.

Before timing, the benchmark proves the armed guard is *live* — it
injects one GEMM bit flip and requires :class:`ComputeCorruption`.

Standalone::

    PYTHONPATH=src python benchmarks/bench_sdc.py --smoke \\
        --max-overhead 0.10
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import overhead_gate  # noqa: E402  (puts src/ on the path)
from repro.kernels import abft_guard  # noqa: E402
from repro.resilience import (ComputeCorruption, ComputeFault,  # noqa: E402
                              FaultInjector, FaultPlan, inject_compute)


def _prove_guard_live(trainer) -> None:
    """One injected GEMM flip must be caught, or the timings are void."""
    injector = FaultInjector(FaultPlan(
        events=(ComputeFault(step=0, site="gemm", nth=0),)))
    injector.advance(0)
    try:
        with abft_guard(), inject_compute(injector):
            trainer.train_step()
    except ComputeCorruption:
        return
    raise SystemExit("ABFT guard did not detect an injected GEMM flip — "
                     "refusing to benchmark a dead guard")


if __name__ == "__main__":
    sys.exit(overhead_gate.main("sdc", "abft", abft_guard,
                                prove_live=_prove_guard_live,
                                description=__doc__.splitlines()[0]))
