#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs every workload twice on the same code and seed, untraced and traced,
and checks that

* every end-to-end metric of the second run is no worse than the first by
  more than its bound in ``BENCHMARK.json``, and
* every count that should repeat exactly (:data:`EXACT`) is identical,

then runs one more untraced pass on a second seed and reports it next to
the first (the seed moves data, not the amount of work, so the numbers
should again sit within the bounds).  Exit code 0 iff everything agrees.

    python3 bench_e2e/selfcheck.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-layer counts that must repeat exactly between two runs of one seed,
#: and the workloads on which they are defined by the schedule alone.
EXACT = {
    "serve.dispatches_per_rep": ("serve_cycle",),
    "serve.cache_hit_rate": ("serve_cycle",),
    "serve.useful_step_frac": ("serve_cycle",),
    "diffusion.model_forwards_per_rep": ("serve_cycle", "rollout_ens16"),
    "diffusion.forwards_per_member_step": ("serve_cycle", "rollout_ens16"),
    "tensor.objects_per_forward": None,          # None = every workload
    "tensor.flops_per_forward": None,
    "parallel.comm_bytes_per_step": ("swipe_train",),
    "parallel.comm_ops_per_step": ("swipe_train",),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{workload} seed={seed} trace={trace} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: incorrect or failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)
    disagreements = 0
    for w in (w["name"] for w in spec["workloads"]):
        first = run(w, args.seed, args.seconds, 0)
        second = run(w, args.seed, args.seconds, 0)
        other = run(w, args.seed + 1, args.seconds, 0)
        print(f"== {w}")
        for e in spec["end_to_end"]:
            name = e["name"]
            worse = worse_by(first[name], second[name], e["better"])
            ok = worse <= e["bound"]
            disagreements += not ok
            print(f"  {name:16s} {first[name]:12.5g} {second[name]:12.5g} "
                  f"worse by {worse:+.3f} (bound {e['bound']}) "
                  f"{'ok' if ok else 'DISAGREE'}   seed+1: "
                  f"{other[name]:.5g} ({worse_by(first[name], other[name], e['better']):+.3f})")
        layers_a = run(w, args.seed, args.seconds, 1)
        layers_b = run(w, args.seed, args.seconds, 1)
        for name, where in EXACT.items():
            if where is not None and w not in where:
                continue
            ok = layers_a[name] == layers_b[name]
            disagreements += not ok
            print(f"  {name:40s} {layers_a[name]!r:>14} {layers_b[name]!r:>14}"
                  f" {'identical' if ok else 'DIFFER'}")
    print("selfcheck:", "ok" if not disagreements
          else f"{disagreements} disagreement(s)")
    return 0 if not disagreements else 1


if __name__ == "__main__":
    sys.exit(main())
