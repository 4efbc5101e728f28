"""Canary rollout: registry-gated candidate promoted (or rolled back) live.

The full model lifecycle in one script: train an incumbent, register and
gate it, train a candidate, gate it against the incumbent, then let the
:class:`~repro.serve.DeploymentController` drive a canary rollout through
the serving event loop — a traffic fraction to the candidate, shadow
re-forecasts of incumbent traffic, and an automatic verdict.

    python examples/canary_rollout.py             (clean -> auto-promote)
    python examples/canary_rollout.py --regress   (skewed -> auto-rollback)

``--regress`` models *deployment skew*: the candidate that passed the
offline gate is not the candidate that reaches the workers (its weights
are corrupted en route, and a worker fail-stops mid-rollout for good
measure).  The shadow skill check catches it online and rolls back to
the incumbent digest exactly, firing a critical ``deploy.rollback``
alert.  Exits 0 only if the expected terminal state is reached and the
``deploy_check`` conservation identities hold.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from repro import obs, quickstart_components
from repro.diffusion import SolverConfig
from repro.obs import TraceReport
from repro.parallel import SimCluster
from repro.registry import (GateConfig, ModelRegistry, build_scorecard,
                            gate_version)
from repro.resilience import FailStop, FaultInjector, FaultPlan
from repro.serve import (DeployConfig, DeploymentController, ForecastRequest,
                         ForecastService, ServiceConfig, TierPolicy,
                         TierRouter, deploy_check)

ROUTER = TierRouter().with_policy(TierPolicy(
    name="standard", priority=1, solver_config=SolverConfig(n_steps=4),
    slo_s=30.0))

#: Toy-scale slack: short training makes per-IC skill noisy, so the gate
#: and the shadow comparison both get generous tolerances.  An operational
#: deployment would tighten these, not restructure anything.
GATE = GateConfig(rel_tolerance=0.5)
DEPLOY = DeployConfig(canary_fraction=0.4, shadow_fraction=1.0,
                      observation_window=8, shadow_skill_tol=0.5,
                      max_shadow_regressions=2)


def register_and_gate(registry, version, forecaster, archive, parent=None):
    registry.register_state(
        forecaster.model.state_dict(), forecaster.model.config,
        state_norm=forecaster.state_norm,
        residual_norm=forecaster.residual_norm,
        forcing_norm=forecaster.forcing_norm, version=version,
        parent=parent, source="examples/canary_rollout.py",
        scorecard=build_scorecard(forecaster, archive))
    decision = gate_version(registry, version, config=GATE)
    print(f"  gate {version}: {'PASS' if decision.passed else 'FAIL'}"
          + (f"  ({'; '.join(decision.reasons)})" if decision.reasons
             else ""))
    return decision


def corrupt(forecaster, scale=25.0, seed=13):
    """Deployment skew: perturb every weight by ``scale`` of its spread.

    The toy model is lightly trained, so mild perturbations barely move
    archive-truth RMSE — it takes a heavy hand to simulate a genuinely
    broken artifact (ratios ~2.5x incumbent at this scale)."""
    rng = np.random.default_rng(seed)
    state = forecaster.model.state_dict()
    skewed = {k: v + scale * (np.std(v) + 1e-6)
              * rng.standard_normal(v.shape).astype(v.dtype)
              for k, v in state.items()}
    forecaster.model.load_state_dict(skewed)
    return forecaster


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regress", action="store_true",
                        help="corrupt the deployed candidate and inject a "
                        "worker fail-stop; expect auto-rollback")
    parser.add_argument("--events", default="deploy_events.jsonl",
                        help="where to write the deploy event log")
    args = parser.parse_args(argv)

    print("Training the incumbent ...")
    archive, trainer = quickstart_components(train_years=0.4, seed=1)
    trainer.fit(120)
    incumbent = trainer.forecaster()
    print("Training the candidate (same run, further along) ...")
    trainer.fit(80)
    candidate = trainer.forecaster()

    registry = ModelRegistry(tempfile.mkdtemp(prefix="canary_registry_"))
    print(f"Registry at {registry.root}")
    register_and_gate(registry, "v0001", incumbent, archive)
    registry.set_status("v0001", "live")
    decision = register_and_gate(registry, "v0002", candidate, archive,
                                 parent="v0001")
    if not decision.passed:
        print("candidate did not gate; nothing to canary")
        return 1

    obs.enable()
    monitor, recorder = obs.enable_health()
    cluster = None
    if args.regress:
        plan = FaultPlan(events=(FailStop(rank=0, step=3),))
        cluster = SimCluster(3, injector=FaultInjector(plan))
    service = ForecastService(
        registry.forecaster("v0001", forcing_fn=incumbent.forcing_fn),
        router=ROUTER, version="v0001", cluster=cluster,
        config=ServiceConfig(n_workers=2))

    def archive_truth(req):
        """Shadow truth straight from the reanalysis archive."""
        i = req.start_index
        return archive.fields[i:i + req.n_steps + 1]

    controller = DeploymentController(service, registry=registry,
                                      config=DEPLOY, truth_fn=archive_truth)
    if args.regress:
        print("\nStarting canary (candidate skewed in transit) ...")
        deployed = corrupt(
            registry.forecaster("v0002", forcing_fn=incumbent.forcing_fn))
        controller.start_canary("v0002", deployed)
    else:
        print("\nStarting canary (candidate materialized from registry) ...")
        controller.start_canary("v0002")

    test_idx = archive.split_indices("test")
    burst = [ForecastRequest(init_state=archive.fields[int(i)],
                             start_index=int(i), n_steps=4, n_members=2,
                             seed=s, arrival_s=0.5 * s)
             for s, i in enumerate(test_idx[:24])]
    responses = service.run(burst)

    summary = controller.summary()
    served = {v: sum(1 for r in responses if r.version == v)
              for v in sorted({r.version for r in responses})}
    print(f"\nTerminal state: {summary['state']}")
    print(f"  served by version: {served}")
    print(f"  shadows {summary['counts']['shadows']}, regressions "
          f"{summary['counts']['shadow_regressions']}, reassigned "
          f"{summary['counts']['reassigned']}")
    for t in summary["transitions"]:
        print(f"  transition {t['kind']:<14} {t.get('reason', '')}")
    versions = service.versions
    print(f"  active {versions.active} @ "
          f"{versions.bindings[versions.active].weights_digest[:12]}")
    print(f"  registry live: {registry.live()}")

    report = TraceReport()
    check = report.run(deploy_check, service, controller)
    print("\n" + "\n".join(line for line in report.render().splitlines()
                           if "deploy" in line or "OK" in line or "BAD"
                           in line))

    events = recorder.events(subsystem="deploy")
    os.makedirs(os.path.dirname(os.path.abspath(args.events)),
                exist_ok=True)
    obs.write_events_jsonl(events, args.events)
    print(f"\n{len(events)} deploy event(s) -> {args.events}")

    ok = check["agrees"] and all(r.ok for r in responses)
    if args.regress:
        ok &= summary["state"] == "rolled_back"
        ok &= registry.get("v0002").status == "rolled_back"
        critical = [a for a in monitor.alerts.alerts
                    if a.kind == "deploy.rollback"
                    and a.severity == "critical"]
        print(f"critical deploy.rollback alerts: {len(critical)}")
        ok &= bool(critical)
    else:
        ok &= summary["state"] == "promoted"
        ok &= registry.live() == "v0002"
    obs.disable()
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
