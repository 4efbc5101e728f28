#!/usr/bin/env python
"""Unified benchmark runner: kernel workloads + figure benches, JSON out.

Runs two families of benchmarks and leaves machine-readable sidecars that
``tools/check_bench_regression.py`` can diff against committed baselines:

* the kernel workloads from :mod:`kernel_workloads`, timed here with
  interleaved A/B rounds (optimized and reference alternate within each
  round, so CPU frequency drift hits both sides equally) — written to
  ``BENCH_kernels.json`` with per-workload p50/p95/min times, bytes
  allocated per call (tracemalloc), plan-cache and arena counters, and
  derived optimized-vs-reference speedups;
* the analytical figure benches (``fig4_scaling``, ``table3_throughput``,
  ``swipe_ablation``), run via pytest in a subprocess with
  ``BENCH_RESULTS_DIR`` pointed at the output directory so their
  ``write_result`` sidecars land next to the kernel report.

Usage::

    python benchmarks/run_benches.py                  # full run
    python benchmarks/run_benches.py --smoke          # CI: fewer rounds
    python benchmarks/run_benches.py --out /tmp/bench # sidecars go here
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

FIGURE_BENCHES = [
    "bench_fig4_scaling.py",
    "bench_table3_throughput.py",
    "bench_swipe_ablation.py",
]


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _bytes_per_call(fn) -> int:
    """Peak bytes newly allocated across one call (tracemalloc)."""
    fn()  # warm caches/pools so the measurement sees steady state
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(0, int(peak - before))


def measure_workload(workload, rounds: int, warmup: int) -> dict:
    """Interleaved optimized/reference timing for one workload.

    Alternating within each round means slow drift (thermal, frequency
    scaling) biases both sides equally; ``min`` over rounds is the noise
    floor and is what the derived speedup uses.
    """
    opt, ref = workload.optimized, workload.reference
    for _ in range(warmup):
        opt()
        if ref is not None:
            ref()
    opt_times: list[float] = []
    ref_times: list[float] = []
    for _ in range(rounds):
        opt_times.append(_time_once(opt))
        if ref is not None:
            ref_times.append(_time_once(ref))
    out = {
        "opt_ms_min": min(opt_times) * 1e3,
        "opt_ms_p50": _percentile(opt_times, 50) * 1e3,
        "opt_ms_p95": _percentile(opt_times, 95) * 1e3,
        "opt_bytes_per_call": _bytes_per_call(opt),
        "rounds": rounds,
    }
    if ref is not None:
        # The headline speedup is the *median of per-round paired ratios*:
        # a load burst slows the adjacent opt and ref measurements alike,
        # so the ratio survives noise that corrupts min/min across runs.
        paired = [r / o for o, r in zip(opt_times, ref_times)]
        out.update({
            "ref_ms_min": min(ref_times) * 1e3,
            "ref_ms_p50": _percentile(ref_times, 50) * 1e3,
            "ref_ms_p95": _percentile(ref_times, 95) * 1e3,
            "ref_bytes_per_call": _bytes_per_call(ref),
            "paired_speedup_p50": _percentile(paired, 50),
        })
    return out


def run_kernel_benches(rounds: int, warmup: int) -> dict:
    from kernel_workloads import WORKLOADS

    from repro.kernels import clear_plan_caches, plan_cache_stats
    from repro.tensor import arena

    clear_plan_caches()
    arena().clear()
    arena().reset_stats()

    benches: dict[str, dict] = {}
    derived: dict[str, float] = {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        result = measure_workload(workload, rounds=rounds, warmup=warmup)
        benches[name] = result
        if "ref_ms_min" in result:
            derived[f"{name}_speedup"] = result["paired_speedup_p50"]
        msg = f"  {name:32s} opt {result['opt_ms_min']:8.3f} ms"
        if "ref_ms_min" in result:
            msg += (f"  ref {result['ref_ms_min']:8.3f} ms "
                    f"  x{derived[f'{name}_speedup']:.2f}")
        print(msg)
    return {
        "bench": "BENCH_kernels",
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {"rounds": rounds, "warmup": warmup},
        "data": benches,
        "derived": derived,
        "plan_caches": plan_cache_stats(),
        "arena": arena().stats(),
    }


def run_script_bench(script: str, out_dir: str, smoke: bool,
                     *flags: str) -> int:
    """Run a standalone bench script in its own process (so the global
    obs / ABFT-guard / virtual-clock state it toggles cannot leak into
    other benches); overhead budgets are enforced inside the script."""
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(bench_dir, script),
           "--out", os.path.abspath(out_dir), *flags]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=bench_dir).returncode


def run_figure_benches(out_dir: str, names: list[str]) -> int:
    """Run the analytical figure benches under pytest; their
    ``write_result`` sidecars are redirected to ``out_dir``."""
    env = dict(os.environ)
    env["BENCH_RESULTS_DIR"] = os.path.abspath(out_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
            env.get("PYTHONPATH")) if p)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, "-m", "pytest", "-q", "--benchmark-disable",
           *[os.path.join(bench_dir, n) for n in names]]
    proc = subprocess.run(cmd, env=env, cwd=bench_dir)
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer timing rounds (CI-friendly; same "
                             "workloads, same sidecar schema)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="sidecar output directory "
                             "(default: benchmarks/results)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override timing rounds per workload")
    parser.add_argument("--skip-figures", action="store_true",
                        help="only run the kernel workloads")
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds else (15 if args.smoke else 80)
    warmup = 1 if args.smoke else 3
    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)

    print(f"kernel workloads ({rounds} interleaved rounds):")
    report = run_kernel_benches(rounds=rounds, warmup=warmup)
    path = os.path.join(out_dir, "BENCH_kernels.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")

    rc_scripts = 0
    for label, script, flags in (
            ("observability overhead", "bench_obs_health.py",
             ("--max-overhead", "0.05")),
            ("abft overhead", "bench_sdc.py", ()),
            ("rolling-swap deploy", "bench_deploy.py", ())):
        print(f"{label} bench:")
        rc = run_script_bench(script, out_dir, args.smoke, *flags)
        if rc != 0:
            print(f"{label} bench FAILED (exit {rc})", file=sys.stderr)
        rc_scripts = rc_scripts or rc

    if args.skip_figures:
        return rc_scripts
    print("figure benches (pytest, single-shot):")
    rc = run_figure_benches(out_dir, FIGURE_BENCHES)
    if rc != 0:
        print(f"figure benches FAILED (exit {rc})", file=sys.stderr)
    return rc or rc_scripts


if __name__ == "__main__":
    sys.exit(main())
