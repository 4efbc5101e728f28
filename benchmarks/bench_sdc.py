#!/usr/bin/env python
"""ABFT overhead benchmark: training steps with GEMM checksums on vs off.

Times the same trainer configuration in paired interleaved rounds — one
round alternates an *off* segment (ABFT disarmed: the default execution
mode) with an *on* segment (``abft_guard()``: column-checksum
verification after every guarded GEMM in the attention hot path) — so
CPU frequency drift biases both sides equally.  The training step is the
operational unit the defense ships inside (the guarded
:class:`~repro.train.Trainer` arms ABFT around whole steps), so the
budget is expressed per step.  The headline is

* ``derived.abft_enabled_speedup`` — off-time / on-time (≈1.0 when the
  checksums are cheap; gated higher-is-better by
  ``tools/check_bench_regression.py`` against the committed baseline);
* ``derived.overhead_frac_paired`` — the median over rounds of the
  per-round paired ratio ``on_i / off_i - 1``, the fraction of a training
  step spent verifying checksums.  **This is the key ``--max-overhead``
  reads** (``--max-overhead 0.10`` turns the ISSUE's overhead budget into
  a hard CI failure): a round's two segments run back to back, so drift
  cancels inside each ratio and one slow segment moves one ratio, not
  the verdict — ``benchmarks/run_benches.py``'s discipline;
* ``derived.overhead_frac`` (on/off - 1 over the *minimum* round times)
  and ``derived.overhead_frac_p50`` (over the medians) — informational:
  each is a ratio of two *independent* order statistics, so it can land
  either side of the budget on an unchanged tree.

Before timing, the benchmark proves the armed guard is *live* — it
injects one GEMM bit flip and requires :class:`ComputeCorruption` — so
a "zero-overhead" result can never mean the verification silently
stopped running.

Standalone::

    PYTHONPATH=src python benchmarks/bench_sdc.py --smoke \\
        --max-overhead 0.10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import quickstart_components  # noqa: E402
from repro.kernels import abft_guard  # noqa: E402
from repro.resilience import (ComputeCorruption, ComputeFault,  # noqa: E402
                              FaultInjector, FaultPlan, inject_compute)


def _build_trainer(seed: int):
    _, trainer = quickstart_components(height=16, width=32,
                                       train_years=0.3, seed=seed,
                                       test_years=0.1)
    return trainer


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


def _segment_time(trainer, n_steps: int) -> float:
    start = time.perf_counter()
    trainer.fit(n_steps)
    return (time.perf_counter() - start) / n_steps


def run(rounds: int, steps_per_round: int, warmup: int) -> dict:
    """Per-step times (seconds) for both modes, interleaved by round."""
    _prove_guard_live(_build_trainer(seed=1))
    off_trainer = _build_trainer(seed=0)
    on_trainer = _build_trainer(seed=0)
    off_trainer.fit(warmup)
    with abft_guard():
        on_trainer.fit(warmup)
    off_times: list[float] = []
    on_times: list[float] = []
    for _ in range(rounds):
        off_times.append(_segment_time(off_trainer, steps_per_round))
        with abft_guard():
            on_times.append(_segment_time(on_trainer, steps_per_round))
    return {"off_s": off_times, "on_s": on_times}


def report(times: dict, rounds: int, steps_per_round: int) -> dict:
    off = np.asarray(times["off_s"])
    on = np.asarray(times["on_s"])
    off_p50 = float(np.median(off))
    on_p50 = float(np.median(on))
    return {
        "bench": "BENCH_sdc",
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {"rounds": rounds, "steps_per_round": steps_per_round},
        "data": {
            "off_step_ms": {"p50": off_p50 * 1e3,
                            "min": float(off.min()) * 1e3},
            "on_step_ms": {"p50": on_p50 * 1e3,
                           "min": float(on.min()) * 1e3},
        },
        "derived": {
            "abft_enabled_speedup": off_p50 / on_p50,
            "overhead_frac_paired": float(np.median(on / off)) - 1.0,
            "overhead_frac": float(on.min()) / float(off.min()) - 1.0,
            "overhead_frac_p50": on_p50 / off_p50 - 1.0,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer rounds (CI-friendly, same schema)")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--steps-per-round", type=int, default=4)
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="FRAC",
                        help="hard-fail if overhead_frac_paired exceeds "
                             "this")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="sidecar directory (default: results/)")
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds else (6 if args.smoke else 20)
    times = run(rounds, args.steps_per_round, warmup=2)
    payload = report(times, rounds, args.steps_per_round)

    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_sdc.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    d = payload["derived"]
    print(f"abft overhead: off "
          f"{payload['data']['off_step_ms']['p50']:.2f} ms/step, on "
          f"{payload['data']['on_step_ms']['p50']:.2f} ms/step, "
          f"overhead {d['overhead_frac_paired']:+.2%} "
          f"(speedup x{d['abft_enabled_speedup']:.3f})")
    print(f"wrote {path}")

    if args.max_overhead is not None \
            and d["overhead_frac_paired"] > args.max_overhead:
        print(f"FAIL: overhead {d['overhead_frac_paired']:.2%} exceeds "
              f"--max-overhead {args.max_overhead:.2%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
