"""Overhead-gate driver: training steps with a defence armed vs off.

``bench_sdc.py`` (ABFT checksums) and ``bench_obs_health.py`` (the full
observability + health stack) are this one program with a different
context manager.  It times the same trainer configuration in paired
interleaved rounds — one round runs an *off* segment (the default
execution mode) and then an *on* segment (inside ``armed_context()``) back
to back, so CPU frequency drift biases both sides equally — and writes
``BENCH_<name>.json``:

* ``derived.<what>_enabled_speedup`` — off-time / on-time over the round
  medians (≈1.0 when the defence is cheap; gated higher-is-better by
  ``tools/check_bench_regression.py`` against the committed baseline);
* ``derived.overhead_frac_paired`` — the median over rounds of the
  per-round paired ratio ``on_i / off_i - 1``, the fraction of a training
  step the defence costs.  **This is the key ``--max-overhead`` reads**:
  drift cancels inside each ratio and one slow segment moves one ratio,
  not the verdict — ``benchmarks/run_benches.py``'s discipline;
* ``derived.<what>_ms_per_guarded_gemm`` — when ``prove_live`` returns the
  number of guarded GEMMs one step runs: the median of the paired
  per-round ``on_i - off_i`` over that count, the defence's cost per
  operation it guards (gated lower-is-better like any ``*_ms`` leaf);
* ``derived.overhead_frac`` (on/off - 1 over the *minimum* round times)
  and ``derived.overhead_frac_p50`` (over the medians) — informational:
  each is a ratio of two *independent* order statistics, so it can land
  either side of the budget on an unchanged tree.

``prove_live(trainer)``, when given, runs before any timing and must
raise ``SystemExit`` if the armed defence is not actually running, so a
"zero-overhead" result can never mean the check silently stopped.  It
returns the guarded GEMMs per step, or ``None``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import quickstart_components  # noqa: E402


def _build_trainer(seed: int):
    _, trainer = quickstart_components(height=16, width=32,
                                       train_years=0.3, seed=seed,
                                       test_years=0.1)
    return trainer


def _segment_time(trainer, n_steps: int) -> float:
    start = time.perf_counter()
    trainer.fit(n_steps)
    return (time.perf_counter() - start) / n_steps


def run(armed_context, rounds: int, steps_per_round: int, warmup: int = 2
        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-step times (seconds) ``(off, on)``, interleaved by round."""
    off_trainer = _build_trainer(seed=0)
    on_trainer = _build_trainer(seed=0)
    off_trainer.fit(warmup)
    with armed_context():
        on_trainer.fit(warmup)
    off_times: list[float] = []
    on_times: list[float] = []
    for _ in range(rounds):
        off_times.append(_segment_time(off_trainer, steps_per_round))
        with armed_context():
            on_times.append(_segment_time(on_trainer, steps_per_round))
    return np.asarray(off_times), np.asarray(on_times)


def report(name: str, what: str, off: np.ndarray, on: np.ndarray,
           steps_per_round: int, guarded_gemms: int | None = None) -> dict:
    off_p50 = float(np.median(off))
    on_p50 = float(np.median(on))
    payload = {
        "bench": f"BENCH_{name}",
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {"rounds": len(off), "steps_per_round": steps_per_round},
        "data": {
            "off_step_ms": {"p50": off_p50 * 1e3,
                            "min": float(off.min()) * 1e3},
            "on_step_ms": {"p50": on_p50 * 1e3,
                           "min": float(on.min()) * 1e3},
        },
        "derived": {
            f"{what}_enabled_speedup": off_p50 / on_p50,
            "overhead_frac_paired": float(np.median(on / off)) - 1.0,
            "overhead_frac": float(on.min()) / float(off.min()) - 1.0,
            "overhead_frac_p50": on_p50 / off_p50 - 1.0,
        },
    }
    if guarded_gemms:
        payload["config"]["guarded_gemms_per_step"] = guarded_gemms
        payload["derived"][f"{what}_ms_per_guarded_gemm"] = \
            float(np.median(on - off)) * 1e3 / guarded_gemms
    return payload


def main(name: str, what: str, armed_context, prove_live=None,
         description: str = "") -> int:
    parser = argparse.ArgumentParser(description=description)
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
    args = parser.parse_args()

    guarded_gemms = None
    if prove_live is not None:
        guarded_gemms = prove_live(_build_trainer(seed=1))
    rounds = args.rounds if args.rounds else (6 if args.smoke else 20)
    off, on = run(armed_context, rounds, args.steps_per_round)
    payload = report(name, what, off, on, args.steps_per_round,
                     guarded_gemms)

    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    d = payload["derived"]
    print(f"{what} overhead: off "
          f"{payload['data']['off_step_ms']['p50']:.2f} ms/step, on "
          f"{payload['data']['on_step_ms']['p50']:.2f} ms/step, "
          f"overhead {d['overhead_frac_paired']:+.2%} "
          f"(speedup x{d[f'{what}_enabled_speedup']:.3f})"
          + (f", {d[f'{what}_ms_per_guarded_gemm'] * 1e3:.1f} us per "
             f"guarded GEMM ({guarded_gemms} per step)"
             if guarded_gemms else ""))
    print(f"wrote {path}")

    if args.max_overhead is not None \
            and d["overhead_frac_paired"] > args.max_overhead:
        print(f"FAIL: overhead {d['overhead_frac_paired']:.2%} exceeds "
              f"--max-overhead {args.max_overhead:.2%}", file=sys.stderr)
        return 1
    return 0
