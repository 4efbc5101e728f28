"""Canary deployment: routing split, shadow checks, auto-promotion,
auto-rollback, and the ``deploy_check`` conservation identities."""

import numpy as np
import pytest

from repro.diffusion import SolverConfig
from repro.model import Aeris
from repro.obs import TraceReport
from repro.parallel import SimCluster
from repro.registry import ModelRegistry
from repro.resilience import (FailStop, FaultInjector, FaultPlan,
                              resilience_check)
from repro.serve import (BatcherConfig, DeployConfig, DeploymentController,
                         ForecastRequest, ForecastService, ServiceConfig,
                         TierPolicy, TierRouter, deploy_check, serve_check)
from tests.serve.test_service import serve

ROUTER = TierRouter().with_policy(TierPolicy(
    name="standard", priority=1, solver_config=SolverConfig(n_steps=2)))


def candidate_forecaster(forecaster, seed=99):
    """Same architecture and normalizers, different weights."""
    model = Aeris(forecaster.model.config, seed=seed)
    return type(forecaster)(
        model=model, state_norm=forecaster.state_norm,
        residual_norm=forecaster.residual_norm,
        forcing_fn=forecaster.forcing_fn,
        forcing_norm=forecaster.forcing_norm, flow=forecaster.flow,
        solver_config=forecaster.solver_config)


def make_service(serve_world, **kwargs):
    _, forecaster, _, _ = serve_world
    kwargs.setdefault("router", ROUTER)
    kwargs.setdefault("version", "v1")
    return ForecastService(forecaster, **kwargs)


def traffic(serve_world, n, arrival_step=0.0):
    archive, _, _, idx = serve_world
    return [ForecastRequest(init_state=archive.fields[idx],
                            start_index=idx, n_steps=2, n_members=2,
                            seed=s, arrival_s=s * arrival_step)
            for s in range(n)]


def incumbent_truth_fn(svc, version="v1"):
    """Shadow 'truth' = the incumbent's own ensemble mean, making the
    incumbent's shadow RMSE ~0 — any real candidate divergence is then a
    deterministic skill regression (no training required)."""
    def truth(req):
        stepper = svc.versions.bindings[version].steppers[req.tier]
        return stepper.ensemble_rollout(
            np.asarray(req.init_state, dtype=np.float32), req.n_steps,
            n_members=req.n_members, seed=req.seed,
            start_index=req.start_index).mean(axis=0)
    return truth


class TestCleanRollout:
    def test_auto_promotes_after_clean_window(self, serve_world, obs_on):
        _, forecaster, _, _ = serve_world
        svc = make_service(serve_world)
        controller = DeploymentController(svc, config=DeployConfig(
            canary_fraction=0.5, shadow_fraction=0.5,
            observation_window=3))
        controller.start_canary("v2",
                                candidate_forecaster(forecaster))
        responses = svc.run(traffic(serve_world, 16))
        assert all(r.ok for r in responses)
        assert controller.state == "promoted"
        assert svc.versions.active == "v2"
        served = {r.version for r in responses}
        assert served == {"v1", "v2"}  # both sides actually took traffic
        check = TraceReport().run(deploy_check, svc, controller)
        assert check["agrees"]
        assert check["terminal"]["candidate_live"]

    def test_post_promotion_bit_identical_to_candidate(self, serve_world):
        archive, forecaster, _, idx = serve_world
        svc = make_service(serve_world)
        candidate = candidate_forecaster(forecaster)
        controller = DeploymentController(svc, config=DeployConfig(
            canary_fraction=0.5, observation_window=2, shadow_fraction=0.0))
        controller.start_canary("v2", candidate)
        svc.run(traffic(serve_world, 12))
        assert controller.state == "promoted"
        resp = serve(svc, ForecastRequest(
            init_state=archive.fields[idx], start_index=idx, n_steps=2,
            n_members=3, seed=77))
        direct = type(candidate)(
            model=candidate.model, state_norm=candidate.state_norm,
            residual_norm=candidate.residual_norm,
            forcing_fn=candidate.forcing_fn,
            forcing_norm=candidate.forcing_norm, flow=candidate.flow,
            solver_config=SolverConfig(n_steps=2),
        ).ensemble_rollout(archive.fields[idx], n_steps=2, n_members=3,
                           seed=77, start_index=idx)
        assert resp.version == "v2"
        assert np.array_equal(resp.forecast, direct)

    def test_shadows_never_touch_request_conservation(self, serve_world,
                                                      obs_on):
        _, forecaster, _, _ = serve_world
        svc = make_service(serve_world)
        controller = DeploymentController(svc, config=DeployConfig(
            canary_fraction=0.3, shadow_fraction=1.0,
            observation_window=100))
        controller.start_canary("v2", candidate_forecaster(forecaster))
        svc.run(traffic(serve_world, 10))
        assert controller.counts["shadows"] > 0
        report = TraceReport()
        assert report.run(serve_check, svc)["agrees"]
        assert report.run(deploy_check, svc, controller)["agrees"]


class TestRollback:
    def test_shadow_skill_regression_rolls_back(self, serve_world, obs_on):
        import repro.obs as obs
        _, forecaster, _, _ = serve_world
        monitor, _ = obs.enable_health()
        try:
            svc = make_service(serve_world)
            controller = DeploymentController(
                svc, config=DeployConfig(
                    canary_fraction=0.4, shadow_fraction=1.0,
                    observation_window=1000, shadow_skill_tol=0.10),
                truth_fn=incumbent_truth_fn(svc))
            controller.start_canary("v2",
                                    candidate_forecaster(forecaster))
            responses = svc.run(traffic(serve_world, 14))
            assert controller.state == "rolled_back"
            assert all(r.ok for r in responses)
            # The rollback restored the incumbent digest exactly and
            # unloaded the candidate.
            assert svc.versions.active == "v1"
            assert "v2" not in svc.versions.bindings
            check = TraceReport().run(deploy_check, svc, controller)
            assert check["agrees"]
            assert check["terminal"]["incumbent_restored"]
            assert check["terminal"]["candidate_unloaded"]
            # Critical alert fired through the health layer.
            assert "deploy.rollback" in monitor.alerts.kinds()
            severities = {a.severity for a in monitor.alerts.alerts
                          if a.kind == "deploy.rollback"}
            assert severities == {"critical"}
        finally:
            obs.disable_health()

    def test_rollback_reassigns_queued_candidate_requests(self, serve_world,
                                                          obs_on):
        """With one worker and single-request batches, candidate-pinned
        requests are still queued when the first shadow regression fires:
        every one of them must be answered by the incumbent, none lost."""
        _, forecaster, _, _ = serve_world
        svc = make_service(serve_world, config=ServiceConfig(
            batcher=BatcherConfig(max_requests=1)))
        controller = DeploymentController(
            svc, config=DeployConfig(
                canary_fraction=0.5, shadow_fraction=1.0,
                observation_window=1000),
            truth_fn=incumbent_truth_fn(svc))
        controller.start_canary("v2", candidate_forecaster(forecaster))
        responses = svc.run(traffic(serve_world, 12))
        assert controller.state == "rolled_back"
        assert all(r.ok for r in responses)
        assert controller.counts["reassigned"] > 0
        # Everything completed on the surviving version.
        assert {r.version for r in responses if r.version != "v1"} \
            <= {"v2"}
        check = TraceReport().run(deploy_check, svc, controller)
        assert check["agrees"]
        v2 = check["per_version"]["v2"]
        assert v2["reassigned_out"] == controller.counts["reassigned"]
        assert v2["conserved"]

    def test_rollback_under_worker_failstop_loses_nothing(self, serve_world,
                                                          obs_on):
        """The acceptance scenario: a regressed candidate AND a worker
        fail-stop mid-rollout — the canary rolls back, the pool fails
        over, and every accepted request is answered exactly once."""
        _, forecaster, _, _ = serve_world
        plan = FaultPlan(events=(FailStop(rank=0, step=2),))
        cluster = SimCluster(3, injector=FaultInjector(plan))
        svc = make_service(serve_world, cluster=cluster,
                           config=ServiceConfig(
                               n_workers=2,
                               batcher=BatcherConfig(max_requests=1)))
        controller = DeploymentController(
            svc, config=DeployConfig(
                canary_fraction=0.5, shadow_fraction=1.0,
                observation_window=1000),
            truth_fn=incumbent_truth_fn(svc))
        controller.start_canary("v2", candidate_forecaster(forecaster))
        responses = svc.run(traffic(serve_world, 12))
        assert controller.state == "rolled_back"
        assert all(r.ok for r in responses)
        assert svc.pool.stats()["live"] == 1
        report = TraceReport()
        assert report.run(serve_check, svc)["agrees"]
        assert report.run(deploy_check, svc, controller)["agrees"]
        assert report.run(resilience_check, cluster.injector)["agrees"]

    def test_deploy_check_catches_wrong_restore(self, serve_world, obs_on):
        _, forecaster, _, _ = serve_world
        svc = make_service(serve_world)
        controller = DeploymentController(
            svc, config=DeployConfig(canary_fraction=0.5,
                                     shadow_fraction=1.0,
                                     observation_window=1000),
            truth_fn=incumbent_truth_fn(svc))
        controller.start_canary("v2", candidate_forecaster(forecaster))
        svc.run(traffic(serve_world, 12))
        assert controller.state == "rolled_back"
        controller.incumbent_digest = "0" * 64  # simulate a wrong restore
        check = TraceReport().run(deploy_check, svc, controller)
        assert not check["agrees"]
        assert not check["terminal"]["incumbent_restored"]


class TestRegistryIntegration:
    def register_pair(self, tmp_path, serve_world):
        _, forecaster, _, _ = serve_world
        registry = ModelRegistry(str(tmp_path / "registry"))
        candidate = candidate_forecaster(forecaster)
        norms = dict(state_norm=forecaster.state_norm,
                     residual_norm=forecaster.residual_norm,
                     forcing_norm=forecaster.forcing_norm)
        registry.register_state(forecaster.model.state_dict(),
                                forecaster.model.config, version="v1",
                                **norms)
        registry.set_status("v1", "servable")
        registry.set_status("v1", "live")
        registry.register_state(candidate.model.state_dict(),
                                candidate.model.config, version="v2",
                                parent="v1", **norms)
        return registry, candidate

    def test_requires_servable_candidate(self, tmp_path, serve_world):
        registry, candidate = self.register_pair(tmp_path, serve_world)
        svc = make_service(serve_world)
        controller = DeploymentController(svc, registry=registry)
        with pytest.raises(ValueError, match="not servable"):
            controller.start_canary("v2", candidate)

    def test_promotion_updates_registry_lifecycle(self, tmp_path,
                                                  serve_world, obs_on):
        registry, candidate = self.register_pair(tmp_path, serve_world)
        registry.set_status("v2", "servable", reason="gated in test")
        svc = make_service(serve_world)
        controller = DeploymentController(
            svc, registry=registry,
            config=DeployConfig(canary_fraction=0.5, shadow_fraction=0.0,
                                observation_window=3))
        # No forecaster passed: materialized from the registry, so the
        # deployed digest equals the registered one by construction.
        controller.start_canary("v2")
        assert registry.get("v2").status == "canary"
        assert svc.versions.bindings["v2"].weights_digest \
            == registry.get("v2").weights_digest
        svc.run(traffic(serve_world, 12))
        assert controller.state == "promoted"
        assert registry.live() == "v2"
        assert registry.get("v1").status == "retired"
        check = TraceReport().run(deploy_check, svc, controller)
        assert check["agrees"] and check["terminal"]["registry_agrees"]

    def test_rollback_updates_registry_lifecycle(self, tmp_path,
                                                 serve_world, obs_on):
        registry, candidate = self.register_pair(tmp_path, serve_world)
        registry.set_status("v2", "servable", reason="gated in test")
        svc = make_service(serve_world)
        controller = DeploymentController(
            svc, registry=registry,
            config=DeployConfig(canary_fraction=0.5, shadow_fraction=1.0,
                                observation_window=1000),
            truth_fn=incumbent_truth_fn(svc))
        controller.start_canary("v2")
        svc.run(traffic(serve_world, 12))
        assert controller.state == "rolled_back"
        assert registry.get("v2").status == "rolled_back"
        assert registry.live() == "v1"
        check = TraceReport().run(deploy_check, svc, controller)
        assert check["agrees"] and check["terminal"]["registry_agrees"]

    def test_not_idle_twice(self, tmp_path, serve_world):
        registry, candidate = self.register_pair(tmp_path, serve_world)
        registry.set_status("v2", "servable")
        svc = make_service(serve_world)
        controller = DeploymentController(svc, registry=registry)
        controller.start_canary("v2", candidate)
        with pytest.raises(RuntimeError, match="not idle"):
            controller.start_canary("v2", candidate)
