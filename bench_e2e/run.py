#!/usr/bin/env python3
"""Run the end-to-end benchmark.

    python3 bench_e2e/run.py                                  # all five
    python3 bench_e2e/run.py --workload serve_steady --seed 3 \\
        --seconds 15 --trace 0                                # one, as the
                                                              # driver does

One workload runs in one process: single BLAS thread, ``repro.obs`` left
disabled.  Set-up (archive, model, service/engine, warm-up) is built
``SETUP_REPEATS`` times and its median reported; the workload's repetition
is then run until ``--seconds`` have passed; the output oracle runs after
the clock stops.  Every metric is printed by name with its unit, and the
last line of standard output is the JSON result the driver reads.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ledger (wrappers from ``trace.py`` on every second repetition).
``--workload all`` runs each workload in its own subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is built this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Repetitions measured however short ``--seconds`` is (per tracing mode).
MIN_REPS = 2


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _provenance(args) -> dict:
    import numpy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def run_workload(args, spec: dict) -> int:
    """Measure one workload in this process; returns the exit code."""
    import resource

    from bench_e2e import harness
    from bench_e2e.calibrate import ReferenceClock
    from bench_e2e.stats import median

    clock = ReferenceClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = harness.WORKLOADS[args.workload](args.seed, clock)
        setups.append(clock.timed(workload.build).seconds)
    n_setup_segments = len(clock.log)

    tracer = None
    if args.trace:
        from bench_e2e import ledger, trace
        tracer = trace.Tracer()
        before = ledger.Counters.snapshot(workload)
    reps, traced_idx = [], []
    min_reps = MIN_REPS * (2 if args.trace else 1)
    t_start = time.perf_counter()
    while len(reps) < min_reps \
            or time.perf_counter() - t_start < args.seconds:
        k = len(reps)
        if args.trace and k % 2:
            clock.tracer = tracer
            with trace.tracing(tracer):
                reps.append(workload.rep(k))
            clock.tracer = None
            traced_idx.append(k)
        else:
            reps.append(workload.rep(k))
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = time.perf_counter()
    problems = workload.check()
    check_s = time.perf_counter() - t0
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    speed = median(s for _, s, _ in clock.log[n_setup_segments:])

    if args.trace:
        after = ledger.Counters.snapshot(workload)
        values = ledger.reduce(
            tracer, workload, reps, traced_idx, before, after,
            ledger.micro_measures(workload.model, clock.gauge))
        catalogue = spec["per_layer"]
    else:
        values = {
            "setup_s": median(setups),
            "work_per_s": median(r.work / r.wall_s for r in reps),
            "latency_p50_s": median(v for r in reps for v in r.latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        catalogue = spec["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in catalogue}

    print(f"== {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(reps)} repetitions, "
          f"{attempted} attempted, {failed} failed")
    print(f"   machine ran at {speed:.3f}x the reference slice time; times "
          f"below are at reference speed (raw = value x {speed:.3f})")
    if not args.trace:
        print(f"   work = {workload.work_unit}; "
              f"latency = {workload.operation}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:16.6g} {m['unit']}")
    for problem in problems:
        print(f"ORACLE FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(
            args.out, f"{workload.name}-seed{args.seed}-trace{args.trace}")
        if tracer is not None:
            tracer.write_chrome(stem + ".chrome.json")
        with open(stem + ".json", "w") as fh:
            json.dump({**result, "workload": workload.name,
                       "problems": problems,
                       "output_digest": workload.digest(),
                       "provenance": _provenance(args),
                       "counts": {"repetitions": len(reps),
                                  "latency_samples": sum(
                                      len(r.latencies) for r in reps),
                                  **workload.counts()},
                       "phases": {
                           "timed_s": timed_s, "check_s": check_s,
                           "setup_segments": n_setup_segments,
                           "segments_raw_s_speed_traced": clock.log}},
                      fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own subprocess; relays their output and ends
    with one combined JSON line (metrics keyed ``workload/metric``).  If a
    workload produced no result, neither does this."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for result files (default: none "
                             "written)")
    args = parser.parse_args(argv)
    args.seed %= 1 << 63           # numpy seed sequences are non-negative
    if args.workload == "all":
        return run_all(args, spec)
    # Before numpy loads its BLAS: the box has 2 cores, one thread keeps
    # runs comparable.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Import this directory as the ``bench_e2e`` package: left on sys.path
    # as a script directory, its trace.py would shadow the stdlib module.
    sys.path[:] = [p for p in sys.path
                   if os.path.abspath(p or os.getcwd()) != HERE]
    sys.path.insert(0, ROOT)
    try:
        import bench_e2e.harness  # noqa: F401
    except ImportError as exc:
        print(f"bench_e2e: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
