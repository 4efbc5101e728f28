#!/usr/bin/env python
"""Rolling-swap serving benchmark: latency / throughput while a canary
deployment alternates model versions on the workers vs steady state.

A two-version service on a :class:`~repro.parallel.SimCluster` pays for
weight hot-swaps over the metered fabric — the cost a rolling canary
deployment adds on top of steady-state serving.  The benchmark times the
same closed burst twice per round on fresh services:

* **steady** — every request pinned to the incumbent (no swaps);
* **swap** — requests alternate versions per batch (round-robin router,
  single-request batches): the worst-case swap thrash a 50% canary
  split can produce.

Shadows are disabled: they are out-of-band extra compute by design, and
this benchmark isolates the *swap mechanics* (weight shipping + version-
pure batching) that every canary pays regardless of shadow policy.

The fabric books bytes, not seconds, so weight shipping shows up in the
comm ledger rather than in request latency — the benchmark asserts that
parity: swap-phase p99 and throughput must track steady state (the gate
catches any change that makes version alternation serialize, re-plan, or
otherwise slow the serving path), while ``swap_fabric_mb_per_round``
records the weight traffic the canary adds.

Headline leaves (gated by ``tools/check_bench_regression.py``):

* ``data.steady_p99_ms`` / ``data.swap_p99_ms`` — virtual p99 request
  latency (lower-better, loose absolute tolerance in CI);
* ``derived.swap_retention_eff`` — swap throughput / steady throughput
  (higher-better, tight relative tolerance: the swap path may not decay
  relative to steady state even when the hardware changes).

``derived.*_virtual_rps``, ``derived.swap_overhead_frac``, and the
fabric/swap tallies ride along ungated (informational).

Standalone::

    PYTHONPATH=src python benchmarks/bench_deploy.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import quickstart_components  # noqa: E402
from repro.diffusion import SolverConfig  # noqa: E402
from repro.model import Aeris  # noqa: E402
from repro.parallel import SimCluster  # noqa: E402
from repro.serve import (BatcherConfig, ForecastRequest,  # noqa: E402
                         ForecastService, ServiceConfig, TierPolicy,
                         TierRouter)

ROUTER = TierRouter().with_policy(TierPolicy(
    name="standard", priority=1, solver_config=SolverConfig(n_steps=2),
    slo_s=60.0, deadline_s=120.0, max_queue_depth=256))


def build_world(seed: int = 0):
    """Archive + two forecasters with different weights (skill is
    irrelevant to swap mechanics, so no training)."""
    archive, trainer = quickstart_components(height=8, width=16,
                                             train_years=0.2,
                                             test_years=0.1, seed=seed)
    incumbent = trainer.forecaster()
    candidate_model = Aeris(incumbent.model.config, seed=seed + 99)
    candidate = type(incumbent)(
        model=candidate_model, state_norm=incumbent.state_norm,
        residual_norm=incumbent.residual_norm,
        forcing_fn=incumbent.forcing_fn,
        forcing_norm=incumbent.forcing_norm, flow=incumbent.flow,
        solver_config=incumbent.solver_config)
    return archive, incumbent, candidate


def build_service(incumbent, candidate, alternate: bool):
    svc = ForecastService(
        incumbent, router=ROUTER, version="v1",
        cluster=SimCluster(3),
        config=ServiceConfig(n_workers=1,
                             batcher=BatcherConfig(max_requests=1)))
    svc.versions.add("v2", candidate)
    if alternate:
        flip = {"n": 0}

        def round_robin(request):
            flip["n"] += 1
            return "v2" if flip["n"] % 2 else "v1"

        svc.versions.router = round_robin
    else:
        svc.versions.router = lambda request: "v1"
    return svc


def burst(archive, n_requests: int):
    """A closed burst of distinct queries (no cache reuse) at t=0 so the
    makespan is pure service time."""
    idx = archive.split_indices("test")
    return [ForecastRequest(init_state=archive.fields[int(idx[s % len(idx)])],
                            start_index=int(idx[s % len(idx)]), n_steps=2,
                            n_members=2, seed=s, arrival_s=0.0)
            for s in range(n_requests)]


def run_phase(archive, incumbent, candidate, n_requests: int,
              alternate: bool) -> dict:
    svc = build_service(incumbent, candidate, alternate)
    responses = svc.run(burst(archive, n_requests))
    completed = [r for r in responses if r.status == "completed"]
    latencies = np.asarray([r.latency_s for r in completed])
    makespan = max(r.request.arrival_s + r.latency_s for r in completed)
    swaps = sum(w["weight_swaps"] for w in svc.pool.stats()["per_worker"])
    return {"p99_s": float(np.percentile(latencies, 99)),
            "p50_s": float(np.median(latencies)),
            "virtual_rps": len(completed) / makespan,
            "completed": len(completed), "weight_swaps": swaps,
            "swap_bytes": swaps * svc.versions.bindings["v2"].weights_nbytes}


def run(rounds: int, n_requests: int) -> tuple[dict, dict]:
    """Interleaved steady/swap rounds (drift hits both sides equally);
    per-phase medians across rounds."""
    archive, incumbent, candidate = build_world()
    steady_rounds, swap_rounds = [], []
    for _ in range(rounds):
        steady_rounds.append(run_phase(archive, incumbent, candidate,
                                       n_requests, alternate=False))
        swap_rounds.append(run_phase(archive, incumbent, candidate,
                                     n_requests, alternate=True))

    def med(rows, key):
        return float(np.median([r[key] for r in rows]))

    steady = {k: med(steady_rounds, k) for k in steady_rounds[0]}
    swap = {k: med(swap_rounds, k) for k in swap_rounds[0]}
    return steady, swap


def report(steady: dict, swap: dict, rounds: int, n_requests: int) -> dict:
    return {
        "bench": "BENCH_deploy",
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {"rounds": rounds, "n_requests": n_requests,
                   "n_workers": 1},
        "data": {
            "steady_p99_ms": steady["p99_s"] * 1e3,
            "swap_p99_ms": swap["p99_s"] * 1e3,
            "steady_p50_ms": steady["p50_s"] * 1e3,
            "swap_p50_ms": swap["p50_s"] * 1e3,
        },
        "derived": {
            "swap_retention_eff": swap["virtual_rps"]
            / steady["virtual_rps"],
            "steady_virtual_rps": steady["virtual_rps"],
            "swap_virtual_rps": swap["virtual_rps"],
            "swap_overhead_frac": swap["p99_s"] / steady["p99_s"] - 1.0,
            "weight_swaps_per_round": swap["weight_swaps"],
            "swap_fabric_mb_per_round": swap["swap_bytes"] / 1e6,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer rounds (CI-friendly, same schema)")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="sidecar directory (default: results/)")
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds else (3 if args.smoke else 8)
    steady, swap = run(rounds, args.requests)
    payload = report(steady, swap, rounds, args.requests)

    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_deploy.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    d = payload["derived"]
    print(f"rolling swap: steady p99 "
          f"{payload['data']['steady_p99_ms']:.1f} ms, swap p99 "
          f"{payload['data']['swap_p99_ms']:.1f} ms "
          f"({d['swap_overhead_frac']:+.1%}), throughput retention "
          f"{d['swap_retention_eff']:.3f} "
          f"({d['weight_swaps_per_round']:.0f} swaps/round, "
          f"{d['swap_fabric_mb_per_round']:.1f} MB weights shipped)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
