#!/usr/bin/env python
"""SWiPe layout autotuner CLI: derive, snapshot, and verify tuned plans.

Subcommands over :mod:`repro.parallel.autotune`:

* ``plan`` — enumerate + prune + rank layouts for a (config, machine,
  rank budget, global batch), print the ranked frontier, optionally
  calibrate the top-K with a measured kernel-workload FLOP rate, and
  optionally snapshot the plan JSON;
* ``verify`` — re-derive every committed snapshot and fail on drift
  (the CI gate): an unreadable snapshot, a stale input digest, or any
  leaf the re-derivation does not reproduce exits non-zero.

Usage::

    python tools/autotune_cli.py plan --config tiny --machine aurora \
        --world 32 --gbs 8 --out benchmarks/results/plans
    python tools/autotune_cli.py plan --smoke
    python tools/autotune_cli.py verify
    python tools/autotune_cli.py verify --tables /tmp/frontiers

``--smoke`` is the CI preset: the tiny config on Aurora with a 32-rank
budget and a short calibration measurement.  Calibration never enters
the plan digest, so a measured and an unmeasured run of the same inputs
produce the same content-addressed artifact.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, _ROOT)

SMOKE = dict(config="tiny", machine="aurora", world=32, gbs=8,
             micro_batches=(1, 2))

#: Home of the committed plan snapshots (the CI drift oracle).
PLANS_DIR = os.path.join("benchmarks", "results", "plans")


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")


def plan_filename(plan) -> str:
    """Stable snapshot name: one file per (config, machine, budget)."""
    mono = "" if plan.pipeline else "_mono"
    return (f"{_sanitize(plan.config_name)}_{_sanitize(plan.machine_name)}"
            f"_w{plan.world_size}_g{plan.gbs}{mono}.json")


def save_plan(plan, directory: str = PLANS_DIR) -> str:
    """Crash-safe snapshot write; returns the path."""
    from repro.resilience import atomic_write

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, plan_filename(plan))
    return atomic_write(path, plan.to_json())


def frontier_table(plan) -> str:
    """Human-readable ranked frontier (the CI artifact)."""
    header = (f"TunedPlan {plan.config_name} @ {plan.machine_name} | "
              f"world={plan.world_size} gbs={plan.gbs} "
              f"schedule={plan.schedule} | {plan.n_feasible} feasible, "
              f"pruned {dict(sorted(plan.pruned_counts.items()))} | "
              f"digest {plan.digest[:12]}")
    cols = (f"{'rank':>4}  {'layout':<28} {'gas':>4} {'ckpt':>4} "
            f"{'mem_gb':>8} {'bubble':>7} {'mfu':>6} {'pred_s':>10} "
            f"{'meas_s':>10}")
    lines = [header, cols, "-" * len(cols)]
    measured = plan.calibration.get("measured_step_s", {})
    for i, c in enumerate(plan.frontier):
        meas = measured.get(c.layout_key)
        meas_str = "-" if meas is None else f"{meas:.4g}"
        lines.append(
            f"{i:>4}  {c.layout_key:<28} {c.gas:>4} "
            f"{'y' if c.checkpointing else '-':>4} {c.memory_gb:>8.2f} "
            f"{c.bubble_frac:>7.3f} {c.mfu:>6.3f} "
            f"{c.predicted_step_s:>10.4g} {meas_str:>10}")
    if plan.n_feasible > len(plan.frontier):
        lines.append(f"  ... {plan.n_feasible - len(plan.frontier)} more "
                     "feasible candidate(s)")
    w = plan.worst
    lines.append(f"worst {w.layout_key}: pred {w.predicted_step_s:.4g} s"
                 + (f", meas {measured[w.layout_key]:.4g} s"
                    if w.layout_key in measured else ""))
    return "\n".join(line.rstrip() for line in lines)


def measure_flops_per_s(repeats: int = 3) -> float:
    """Sustained training FLOP rate from the shared kernel workload.

    Times the ``aeris_train_step_tiny`` optimized path (min over
    ``repeats``, after one warmup) and divides the analytic training
    FLOPs for its batch by the best wall time.
    """
    from benchmarks.kernel_workloads import WORKLOADS
    from repro.model.config import TINY
    from repro.perf.flops import training_flops_per_sample

    workload = WORKLOADS["aeris_train_step_tiny"]()
    step = workload.optimized
    step()  # warmup: builds the model + primes plan caches
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - t0)
    flops = training_flops_per_sample(TINY) * 2  # the workload's batch
    return flops / best


def cmd_plan(args) -> int:
    from repro.parallel import autotune

    if args.smoke:
        args.config = SMOKE["config"]
        args.machine = SMOKE["machine"]
        args.world = SMOKE["world"]
        args.gbs = SMOKE["gbs"]
        args.micro_batches = ",".join(str(m) for m in SMOKE["micro_batches"])
    if args.world is None or args.gbs is None:
        print("plan: --world and --gbs are required (or --smoke)",
              file=sys.stderr)
        return 2
    config = autotune.resolve_config(args.config)
    machine = autotune.resolve_machine(args.machine)
    micro_batches = tuple(int(m) for m in args.micro_batches.split(","))
    rate = None if args.no_measure else measure_flops_per_s()
    try:
        plan = autotune.plan_for(
            config, machine, args.world, args.gbs,
            pipeline=not args.mono, micro_batches=micro_batches,
            top_k=args.top_k, measured_flops_per_s=rate)
    except autotune.NoFeasibleLayout as exc:
        print(f"plan: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(plan.to_json(), end="")
    else:
        print(frontier_table(plan))
        if rate is not None:
            measured = plan.calibration["measured_step_s"]
            chosen = measured[plan.chosen.layout_key]
            worst = measured[plan.worst.layout_key]
            print(f"measured rate {rate:.3e} FLOP/s | chosen "
                  f"{chosen:.4g} s vs worst {worst:.4g} s "
                  f"({worst / chosen:.1f}x margin)")
    if args.out:
        path = save_plan(plan, args.out)
        print(f"snapshot written: {path}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    from repro.parallel import autotune

    directory = args.plans
    paths = sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.endswith(".json")) if os.path.isdir(directory) else []
    if not paths:
        print(f"verify: no plan snapshots under {directory}",
              file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            plan = autotune.load_plan(path)
        except ValueError as exc:
            failures += 1
            print(f"DRIFT  {os.path.basename(path)}\n       - {exc}")
            continue
        drifts = autotune.verify_plan(plan)
        table = frontier_table(plan)
        if args.tables:
            os.makedirs(args.tables, exist_ok=True)
            name = os.path.splitext(os.path.basename(path))[0] + ".txt"
            with open(os.path.join(args.tables, name), "w") as fh:
                fh.write(table + "\n")
        status = "OK" if not drifts else "DRIFT"
        print(f"{status:>5}  {os.path.basename(path)}  "
              f"chosen {plan.chosen.layout_key}  "
              f"digest {plan.digest[:12]}")
        for drift in drifts:
            failures += 1
            print(f"       - {drift}")
    if failures:
        print(f"verify: {failures} drift finding(s) — regenerate the "
              f"snapshots with 'plan --out {directory}' and review the "
              "moved leaves", file=sys.stderr)
        return 1
    print(f"verify: {len(paths)} snapshot(s) clean")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive a tuned layout plan")
    p.add_argument("--config", default="tiny",
                   help="model config name (tiny/small/1.3B/...)")
    p.add_argument("--machine", default="aurora", help="aurora or lumi")
    p.add_argument("--world", type=int, default=None, help="rank budget")
    p.add_argument("--gbs", type=int, default=None, help="global batch")
    p.add_argument("--mono", action="store_true",
                   help="monolithic (PP=1) single-process layouts")
    p.add_argument("--micro-batches", default="1,2,4",
                   help="comma-separated micro-batch sizes to consider")
    p.add_argument("--top-k", type=int, default=3,
                   help="survivors to calibrate with the measured rate")
    p.add_argument("--no-measure", action="store_true",
                   help="skip the wall-clock rate measurement")
    p.add_argument("--smoke", action="store_true",
                   help="CI preset: tiny @ aurora, world=32, gbs=8")
    p.add_argument("--json", action="store_true",
                   help="print the full plan JSON instead of the table")
    p.add_argument("--out", default=None,
                   help="also write the snapshot into this directory")
    p.set_defaults(func=cmd_plan)

    v = sub.add_parser("verify",
                       help="re-derive committed snapshots; fail on drift")
    v.add_argument("--plans",
                   default=os.path.join(_ROOT, PLANS_DIR),
                   help="snapshot directory to verify")
    v.add_argument("--tables", default=None,
                   help="write per-plan frontier tables here (CI artifact)")
    v.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
