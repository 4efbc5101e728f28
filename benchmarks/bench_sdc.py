#!/usr/bin/env python
"""ABFT overhead benchmark: training steps with GEMM checksums on vs off.

The *on* segments run under ``abft_guard()`` (column-checksum
verification after every guarded GEMM in the attention hot path).  The
guard's cost is fixed per GEMM while the step around it gets faster, so
the gated number is ``derived.abft_ms_per_guarded_gemm``: the median of
the paired per-round ``on - off`` step times over the guarded GEMMs one
step runs.  ``tools/check_bench_regression.py`` gates it like any ``*_ms``
leaf; ``derived.overhead_frac_paired`` stays as information.  The timing
discipline, the sidecar schema (``BENCH_sdc.json``) and the flags are
``overhead_gate.py``'s.

Before timing, the benchmark counts one armed step's guarded GEMMs and
proves the guard is *live* — it injects a bit flip into the last of them
and requires :class:`ComputeCorruption`.

Standalone::

    PYTHONPATH=src python benchmarks/bench_sdc.py --smoke
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import overhead_gate  # noqa: E402  (puts src/ on the path)
from repro.kernels import abft_guard  # noqa: E402
from repro.resilience import (ComputeCorruption, ComputeFault,  # noqa: E402
                              FaultInjector, FaultPlan, inject_compute)


class _GemmCounter(FaultInjector):
    """Injects nothing; counts the guarded GEMMs a step consults it on."""

    gemms = 0

    def compute_fault(self, site: str = "gemm") -> bool:
        self.gemms += site == "gemm"
        return super().compute_fault(site)


def _prove_guard_live(trainer) -> int:
    """Count one clean armed step's guarded GEMMs, then require a flip
    injected into the last of them to be caught, or the timings are void.
    Returns the count."""
    counter = _GemmCounter()
    with abft_guard(), inject_compute(counter):
        trainer.train_step()
    injector = FaultInjector(FaultPlan(
        events=(ComputeFault(step=0, site="gemm", nth=counter.gemms - 1),)))
    try:
        with abft_guard(), inject_compute(injector):
            trainer.train_step()
    except ComputeCorruption:
        return counter.gemms
    raise SystemExit("ABFT guard did not detect an injected GEMM flip — "
                     "refusing to benchmark a dead guard")


if __name__ == "__main__":
    sys.exit(overhead_gate.main("sdc", "abft", abft_guard,
                                prove_live=_prove_guard_live,
                                description=__doc__.splitlines()[0]))
