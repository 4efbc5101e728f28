#!/usr/bin/env python
"""Deterministic simulation-testing driver: explore, replay, shrink.

Subcommands over :mod:`repro.simtest`:

* ``run`` — expand seeds into scenarios, execute each on the virtual
  clocks, judge the invariant registry; every failure is shrunk
  (delta debugging) and written as a JSON repro under ``--out``.
  Exits non-zero iff any scenario failed.
* ``replay`` — re-run committed repro files (or a directory of them)
  and demand the recorded violation set reproduce **bit-exactly**
  (same violations, same fingerprint).  The CI corpus gate.
* ``shrink`` — minimize one failing repro/scenario file again, e.g.
  after tightening an invariant.

Usage::

    python tools/simtest_cli.py run --n 500 --out /tmp/simtest-repros
    python tools/simtest_cli.py run --n 100000 --time-budget 180
    python tools/simtest_cli.py replay tests/simtest/corpus
    python tools/simtest_cli.py shrink repro.json --out shrunk.json

Repro files carry the scenario (schema-versioned), the expected
violation set, and a SHA-256 fingerprint over its canonical JSON — no
timestamps or host state, so a repro committed from one machine replays
bit-exactly on another.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


def _runner():
    from repro.simtest import SimRunner
    return SimRunner()


def _repro_paths(paths) -> list:
    out = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(os.path.join(path, name)
                       for name in sorted(os.listdir(path))
                       if name.endswith(".json"))
        else:
            out.append(path)
    return out


def cmd_run(args) -> int:
    from repro.simtest import shrink, write_repro

    runner = _runner()
    t0 = time.monotonic()
    state = {"n": 0, "failed": []}

    def on_result(result):
        state["n"] += 1
        if result.failed:
            state["failed"].append(result)
            names = ", ".join(sorted(result.violation_names()))
            print(f"  seed {result.scenario.seed}: FAIL "
                  f"[{names}] outcome={result.outcome}", flush=True)
        elif state["n"] % args.progress_every == 0:
            rate = state["n"] / (time.monotonic() - t0)
            print(f"  {state['n']} scenarios, "
                  f"{len(state['failed'])} failing, "
                  f"{rate:.1f}/s", flush=True)

    runner.explore(args.n, seed_start=args.seed_start,
                   time_budget_s=args.time_budget, on_result=on_result)
    print(f"ran {state['n']} scenarios in "
          f"{time.monotonic() - t0:.0f}s: {len(state['failed'])} failing")
    for result in state["failed"]:
        seed = result.scenario.seed
        if args.no_shrink:
            final = result
            note = f"unshrunk failure from seed {seed}"
        else:
            reduction = shrink(result.scenario, result.violation_names(),
                               runner.run, max_evals=args.max_evals,
                               initial_result=result)
            final = reduction.result
            note = (f"shrunk from seed {seed} "
                    f"({reduction.evals} evals: "
                    + "; ".join(reduction.steps[-4:]) + ")")
            print(f"  seed {seed}: shrunk to "
                  f"{len(final.scenario.events)} event(s) "
                  f"in {reduction.evals} evals")
        path = os.path.join(args.out, f"seed-{seed:020d}.json")
        write_repro(path, final, note=note)
        print(f"  wrote {path}")
    return 1 if state["failed"] else 0


def cmd_replay(args) -> int:
    from repro.simtest import load_repro

    runner = _runner()
    paths = _repro_paths(args.paths)
    if not paths:
        print("replay: no repro files found", file=sys.stderr)
        return 2
    bad = 0
    for path in paths:
        try:
            repro = load_repro(path)
        except ValueError as exc:
            bad += 1
            print(f"  {path}: UNREADABLE ({exc})")
            continue
        result, expected, match = runner.replay(repro)
        if match:
            print(f"  {path}: ok ({len(expected)} violation(s) "
                  f"reproduced bit-exactly)")
            continue
        bad += 1
        print(f"  {path}: MISMATCH")
        print(f"    expected: {sorted(v.invariant for v in expected)}")
        print(f"    actual:   "
              f"{sorted(v.invariant for v in result.violations)}")
        print(f"    fingerprint {repro['fingerprint'][:12]}... -> "
              f"{result.fingerprint()[:12]}...")
    print(f"replayed {len(paths)} repro(s): {bad} mismatching or "
          f"unreadable")
    return 1 if bad else 0


def cmd_shrink(args) -> int:
    from repro.simtest import Scenario, shrink, write_repro

    runner = _runner()
    with open(args.path) as fh:
        data = json.load(fh)
    scenario = Scenario.from_dict(data.get("scenario", data))
    result = runner.run(scenario)
    if not result.failed:
        print(f"shrink: {args.path} no longer fails any invariant",
              file=sys.stderr)
        return 2
    reduction = shrink(scenario, result.violation_names(), runner.run,
                       max_evals=args.max_evals, initial_result=result)
    for step in reduction.steps:
        print(f"  {step}")
    out = args.out or args.path
    write_repro(out, reduction.result,
                note=f"re-shrunk ({reduction.evals} evals)")
    print(f"shrunk to {len(reduction.scenario.events)} event(s), "
          f"horizon {reduction.scenario.horizon}; wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simtest_cli",
        description="deterministic simulation testing: run|replay|shrink")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="explore fresh seeds")
    p_run.add_argument("--n", type=int, default=200,
                       help="scenario count (default 200)")
    p_run.add_argument("--seed-start", type=int, default=0)
    p_run.add_argument("--time-budget", type=float, default=None,
                       help="stop exploring after this many seconds")
    p_run.add_argument("--out", default="simtest-repros",
                       help="directory for shrunk failure repros")
    p_run.add_argument("--max-evals", type=int, default=80,
                       help="shrink budget per failure")
    p_run.add_argument("--no-shrink", action="store_true",
                       help="write failures unshrunk")
    p_run.add_argument("--progress-every", type=int, default=25)
    p_run.set_defaults(fn=cmd_run)

    p_replay = sub.add_parser("replay", help="replay repro files")
    p_replay.add_argument("paths", nargs="+",
                          help="repro files or directories of them")
    p_replay.set_defaults(fn=cmd_replay)

    p_shrink = sub.add_parser("shrink", help="minimize a failing repro")
    p_shrink.add_argument("path", help="repro (or bare scenario) JSON")
    p_shrink.add_argument("--out", default=None,
                          help="output path (default: overwrite input)")
    p_shrink.add_argument("--max-evals", type=int, default=80)
    p_shrink.set_defaults(fn=cmd_shrink)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
