"""End-to-end serving: determinism vs the direct forecaster, caching,
batch savings, backpressure/timeout behavior, and chaos under worker
fail-stops."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro import rows
from repro.diffusion import SolverConfig
from repro.model import Aeris
from repro.obs import TraceReport
from repro.parallel import SimCluster
from repro.resilience import (FailStop, FaultInjector, FaultPlan,
                              resilience_check)
from repro.serve import (BatcherConfig, ForecastRequest, ForecastService,
                         OneStepForecaster, ServeWorkerPool, ServiceConfig,
                         TierPolicy, TierRouter, queue, serve_check)

# A fast standard tier so solver-tier tests stay cheap; default high tier
# kept for routing coverage.
FAST_STANDARD = TierRouter().with_policy(TierPolicy(
    name="standard", priority=1, solver_config=SolverConfig(n_steps=2)))


def make_service(serve_world, with_student=False, **kwargs):
    _, forecaster, student, _ = serve_world
    kwargs.setdefault("router", FAST_STANDARD)
    return ForecastService(forecaster,
                           student=student if with_student else None,
                           **kwargs)


def serve(svc, req):
    """One request through :meth:`ForecastService.run`, answered."""
    return svc.run([req], start_s=req.arrival_s)[0]


def request(serve_world, **kwargs):
    archive, _, _, idx = serve_world
    kwargs.setdefault("init_state", archive.fields[idx])
    kwargs.setdefault("start_index", idx)
    kwargs.setdefault("n_steps", 2)
    return ForecastRequest(**kwargs)


class TestDeterminism:
    def test_served_standard_tier_matches_direct_rollout(self, serve_world):
        archive, forecaster, _, idx = serve_world
        svc = make_service(serve_world)
        resp = serve(svc, request(serve_world, n_members=3, seed=7))
        assert resp.ok and resp.forecast.dtype == np.float32
        direct = type(forecaster)(
            model=forecaster.model, state_norm=forecaster.state_norm,
            residual_norm=forecaster.residual_norm,
            forcing_fn=forecaster.forcing_fn,
            forcing_norm=forecaster.forcing_norm, flow=forecaster.flow,
            solver_config=SolverConfig(n_steps=2),
        ).ensemble_rollout(archive.fields[idx], n_steps=2, n_members=3,
                           seed=7, start_index=idx)
        assert np.array_equal(resp.forecast, direct)

    def test_served_fast_tier_matches_one_step_student(self, serve_world):
        archive, forecaster, student, idx = serve_world
        svc = make_service(serve_world, with_student=True)
        resp = serve(svc, request(serve_world, tier="fast", n_members=2,
                                 seed=5))
        assert resp.ok
        direct = OneStepForecaster(
            model=student, state_norm=forecaster.state_norm,
            residual_norm=forecaster.residual_norm,
            forcing_fn=forecaster.forcing_fn,
            forcing_norm=forecaster.forcing_norm,
            flow=forecaster.flow,
        ).ensemble_rollout(archive.fields[idx], n_steps=2, n_members=2,
                           seed=5, start_index=idx)
        assert np.array_equal(resp.forecast, direct)

    def test_variable_subsetting(self, serve_world):
        svc = make_service(serve_world)
        full = serve(svc, request(serve_world, seed=3))
        subset = serve(svc, request(serve_world, seed=3,
                                   variables=("V10", "Z500")))
        assert subset.ok and subset.forecast.shape[-1] == 2
        assert np.array_equal(subset.forecast, full.forecast[..., [2, 5]])


class TestCachingThroughService:
    def test_repeat_query_is_all_hits_and_bit_identical(self, serve_world):
        svc = make_service(serve_world)
        first = serve(svc, request(serve_world, n_members=2, seed=1))
        again = serve(svc, request(serve_world, n_members=2, seed=1))
        assert first.cache_hits == 0 and first.cache_misses == 2
        assert again.cache_hits == 4 and again.cache_misses == 0  # 2m x 2l
        assert np.array_equal(first.forecast, again.forecast)

    def test_longer_query_resumes_from_cached_prefix(self, serve_world):
        archive, _, _, idx = serve_world
        svc = make_service(serve_world)
        serve(svc, request(serve_world, n_steps=2, n_members=2, seed=1))
        longer = serve(svc, request(serve_world, n_steps=3, n_members=2,
                                   seed=1))
        assert longer.cache_hits == 4  # the 2-step prefix of both members
        direct = svc.stepper("standard").ensemble_rollout(
            archive.fields[idx], n_steps=3, n_members=2, seed=1,
            start_index=idx)
        assert np.array_equal(longer.forecast, direct)

    def test_different_seed_does_not_hit(self, serve_world):
        svc = make_service(serve_world)
        serve(svc, request(serve_world, seed=1))
        other = serve(svc, request(serve_world, seed=2))
        assert other.cache_hits == 0


class TestBatching:
    def test_coalesced_requests_complete_in_one_batch(self, serve_world):
        svc = make_service(serve_world)
        reqs = [request(serve_world, n_members=2, seed=s, arrival_s=0.0)
                for s in range(3)]
        resps = svc.run(reqs)
        assert all(r.ok for r in resps)
        assert {r.batch_members for r in resps} == {6}
        assert svc.pool.n_dispatches == 1

    def test_ensemble_served_in_fewer_forwards_than_sequential(
            self, serve_world, obs_on, monkeypatch):
        """The headline batching win: an 8-member request costs one
        stacked forward per solver evaluation, not eight (on one core: one
        member group)."""
        _, forecaster, _, _ = serve_world
        monkeypatch.setattr(rows, "_CORES", 1)
        svc = make_service(serve_world)
        resp = serve(svc, request(serve_world, n_steps=1, n_members=8))
        registry = obs_on.metrics()
        forwards = registry.counter("sampler.model_forwards")
        served = forwards.total()
        assert resp.batch_forwards == served == 3  # one 2S update + denoise
        seq = type(forecaster)(
            model=forecaster.model, state_norm=forecaster.state_norm,
            residual_norm=forecaster.residual_norm,
            forcing_fn=forecaster.forcing_fn,
            forcing_norm=forecaster.forcing_norm, flow=forecaster.flow,
            solver_config=SolverConfig(n_steps=2))
        seq.ensemble_rollout(resp.request.init_state, n_steps=1, n_members=8,
                             seed=0, start_index=resp.request.start_index,
                             batched=False)
        sequential = forwards.total() - served
        assert sequential == 8 * 3
        assert served < sequential
        # Same member-evaluation count either way — batching saves
        # forwards, not math.
        assert registry.counter("sampler.member_forwards").total() == 48

    def test_ensemble_on_two_cores_is_two_member_groups(
            self, serve_world, monkeypatch):
        """On two cores the 8 members step as two groups of 4, this
        process's one stacked forward per solver evaluation (the other
        group's run in the kept worker): the batch still costs 3 forwards
        a data step, and the forecast is the one-core one."""
        forwards = []
        forward = Aeris.forward

        def spy(self, x_t, *args):
            forwards.append(x_t.shape[0])
            return forward(self, x_t, *args)

        monkeypatch.setattr(Aeris, "forward", spy)
        resps = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            resps.append(serve(make_service(serve_world), 
                request(serve_world, n_steps=1, n_members=8)))
        assert forwards == [8] * 3 + [4] * 3
        assert resps[0].batch_forwards == resps[1].batch_forwards == 3
        np.testing.assert_array_equal(resps[1].forecast, resps[0].forecast)


class TestCoalescedResponsesOwnTheirMemory:
    """Requests of one batch that ask for the same members are answered
    from one computed row (single flight) — in separate memory."""

    def twins(self, serve_world, **kwargs):
        svc = make_service(serve_world, with_student=True, **kwargs)
        reqs = [request(serve_world, tier="fast", n_members=m, n_steps=n,
                        seed=7, arrival_s=0.0)
                for m, n in ((2, 2), (2, 2), (1, 1))]
        direct = svc.stepper("fast").ensemble_rollout(
            reqs[0].init_state, n_steps=2, n_members=2, seed=7,
            start_index=reqs[0].start_index)
        return svc, reqs, direct

    def test_poisoning_one_response_leaves_twin_and_cache_clean(
            self, serve_world):
        from repro.resilience import FaultInjector, FaultPlan
        svc, reqs, direct = self.twins(serve_world)
        first, twin, short = svc.run(reqs)
        assert svc.pool.n_dispatches == 1 and len(svc.cache) == 4
        forecasts = [first.forecast, twin.forecast, short.forecast]
        cached = [e.state for e in svc.cache._entries.values()]
        for i, a in enumerate(forecasts):
            assert a.flags.owndata
            for b in forecasts[i + 1:] + cached:
                assert not np.shares_memory(a, b)
        inj = FaultInjector(FaultPlan(seed=0))
        for _ in range(8):      # seeded elements of the first response only
            inj.poison_forecast([first.forecast])
        assert not np.array_equal(first.forecast, direct)
        np.testing.assert_array_equal(twin.forecast, direct)
        np.testing.assert_array_equal(short.forecast, direct[:1, :2])
        again = serve(svc, reqs[0])
        assert again.cache_hits == 4 and again.cache_misses == 0
        np.testing.assert_array_equal(again.forecast, direct)

    def test_quarantined_row_of_a_flight_is_rerun_and_healed(
            self, serve_world):
        """The validator catches the poisoned response of a flight; the
        re-run on the other worker is answered from the (clean) cache.
        ``golden_service_scenario.json`` pins the same thing on requests
        ``a``/``d``."""
        from repro.resilience import ComputeFault
        from repro.serve import ForecastValidator
        svc, reqs, direct = self.twins(
            serve_world, config=ServiceConfig(n_workers=2),
            validator=ForecastValidator.from_normalizer(
                serve_world[0].state_normalizer()),
            injector=FaultInjector(FaultPlan(seed=5, events=(
                ComputeFault(step=0, site="forecast"),))))
        responses = svc.run(reqs)
        assert all(r.ok for r in responses) and svc.pool.n_dispatches == 2
        assert sorted(r.quarantines for r in responses) == [0, 0, 1]
        assert {r.batch_forwards for r in responses} == {0}     # the re-run
        assert [r.cache_hits for r in responses] == [4, 4, 1]
        for resp in responses[:2]:
            np.testing.assert_array_equal(resp.forecast, direct)
        np.testing.assert_array_equal(responses[2].forecast, direct[:1, :2])


class TestBackpressure:
    def test_queue_full_rejection(self, serve_world, monkeypatch):
        monkeypatch.setattr(queue, "MAX_QUEUE_DEPTH", 1)
        svc = make_service(serve_world,
                           config=ServiceConfig(
                               batcher=BatcherConfig(max_requests=1)))
        reqs = [request(serve_world, seed=s, arrival_s=0.0)
                for s in range(3)]
        statuses = sorted(r.status for r in svc.run(reqs))
        assert statuses == ["completed", "rejected", "rejected"]
        assert svc.tally["rejected"] == 2

    def test_unavailable_tier_rejected(self, serve_world):
        svc = make_service(serve_world)  # no student
        resp = serve(svc, request(serve_world, tier="fast"))
        assert resp.status == "rejected" and "tier_unavailable" in resp.error

    def test_bad_shape_rejected(self, serve_world):
        svc = make_service(serve_world)
        bad = np.zeros((2, 2, 9), dtype=np.float32)
        resp = serve(svc, ForecastRequest(init_state=bad, n_steps=1))
        assert resp.status == "rejected" and "bad_shape" in resp.error

    def test_unknown_variable_rejected(self, serve_world):
        svc = make_service(serve_world)
        resp = serve(svc, request(serve_world, variables=("nope",)))
        assert resp.status == "rejected"
        assert "unknown_variable" in resp.error

    def test_deadline_miss_is_timeout(self, serve_world):
        router = FAST_STANDARD.with_policy(TierPolicy(
            name="standard", priority=1,
            solver_config=SolverConfig(n_steps=2), deadline_s=1e-9))
        svc = make_service(serve_world, router=router,
                           config=ServiceConfig(
                               batcher=BatcherConfig(max_requests=1)))
        reqs = [request(serve_world, seed=s, arrival_s=0.0)
                for s in range(2)]
        statuses = sorted(r.status for r in svc.run(reqs))
        # The head request dispatches immediately; the one behind it
        # outlives the (absurd) deadline while the worker is busy.
        assert statuses == ["completed", "timeout"]
        assert svc.tally["timeout"] == 1


class TestResilience:
    def test_failover_mid_flight(self, serve_world, obs_on):
        """A worker that fail-stops after serving once: the next batch
        headed its way fails over instead of dropping."""
        plan = FaultPlan(events=(FailStop(rank=0, step=1),))
        cluster = SimCluster(3, injector=FaultInjector(plan))
        pool = ServeWorkerPool(2, cluster=cluster)
        done = []
        pool.dispatch(0.0, lambda: done.append("a"),
                      payload=np.ones(8, dtype=np.float32))
        # Pin worker 1 busy so the doomed worker 0 is picked again.
        pool.workers[1].free_at = 100.0
        worker, _, _ = pool.dispatch(0.0, lambda: done.append("b"),
                                     payload=np.ones(8, dtype=np.float32))
        assert done == ["a", "b"] and worker.rank == 1
        assert not pool.workers[0].alive
        registry = obs_on.metrics()
        assert registry.counter("serve.worker_failovers").total() == 1
        assert registry.counter("resilience.dead_ranks").total(
            scope="serve") == 1

    def test_chaos_run_completes_all_accepted_requests(self, serve_world,
                                                       obs_on):
        """One of two workers is dead on arrival: every accepted request
        still completes on the survivor, and the fault ledger reconciles."""
        plan = FaultPlan(events=(FailStop(rank=0, step=0),))
        cluster = SimCluster(3, injector=FaultInjector(plan))
        svc = make_service(serve_world,
                           config=ServiceConfig(
                               n_workers=2,
                               batcher=BatcherConfig(max_requests=1)),
                           cluster=cluster)
        reqs = [request(serve_world, seed=s, arrival_s=0.0)
                for s in range(3)]
        resps = svc.run(reqs)
        assert all(r.ok for r in resps)
        assert all(r.worker == 1 for r in resps)
        assert svc.pool.stats()["live"] == 1
        report = TraceReport()
        assert report.run(serve_check, svc)["agrees"]
        assert report.run(resilience_check, cluster.injector)["agrees"]

    def test_total_capacity_loss_fails_requests(self, serve_world):
        plan = FaultPlan(events=(FailStop(rank=0, step=0),))
        svc = make_service(serve_world,
                           config=ServiceConfig(n_workers=1),
                           injector=FaultInjector(plan))
        resps = svc.run([request(serve_world, seed=s, arrival_s=0.0)
                         for s in range(2)])
        assert [r.status for r in resps] == ["failed", "failed"]
        # Conservation still holds: accepted == completed+timeout+failed.
        assert svc.tally["accepted"] == svc.tally["failed"] == 2


class TestObservability:
    def test_serve_check_reconciles(self, serve_world, obs_on, monkeypatch):
        monkeypatch.setattr(queue, "MAX_QUEUE_DEPTH", 1)
        svc = make_service(serve_world,
                           config=ServiceConfig(
                               batcher=BatcherConfig(max_requests=1)))
        svc.run([request(serve_world, seed=s, arrival_s=0.0)
                 for s in range(3)])
        report = TraceReport()
        check = report.run(serve_check, svc)
        assert check["agrees"]
        assert check["per_event"]["completed"]["counter"] == 1
        assert check["per_event"]["rejected"]["counter"] == 2
        assert check["serve_spans"] > 0
        assert "serve requests" in report.render()

    def test_serve_check_catches_lost_requests(self, serve_world, obs_on):
        svc = make_service(serve_world)
        serve(svc, request(serve_world))
        svc.tally["completed"] -= 1  # simulate a dropped response
        assert not TraceReport().run(serve_check, svc)["agrees"]

    def test_stats_surface(self, serve_world):
        svc = make_service(serve_world)
        serve(svc, request(serve_world, n_members=2))
        stats = svc.stats()
        assert stats["tally"]["completed"] == 1
        assert stats["cache"]["entries"] == 4
        assert stats["workers"]["dispatches"] == 1
        assert stats["slo"]["standard"]["count"] == 1


# -- one pinned scenario, end to end -------------------------------------------
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_service_scenario.json")

#: request id -> (tier, members, steps, seed, state offset, arrival, variables)
SCENARIO = {
    "a": ("standard", 2, 2, 7, 0, 0.0, None),
    "b": ("fast", 4, 2, 7, 0, 0.0, None),
    "c": ("fast", 1, 3, 9, 3, 0.0, ("V10", "Z500")),
    "d": ("standard", 1, 1, 7, 0, 0.0, None),    # a's member 0, same batch
    "e": ("standard", 3, 2, 11, 3, 0.01, None),
    "f": ("fast", 4, 3, 7, 0, 0.04, None),        # resumes b's cached prefix
    "g": ("standard", 2, 2, 7, 0, 0.05, None),    # repeat of a: all hits
    "h": ("fast", 2, 1, 3, 0, 0.05, None),
    "i": ("standard", 2, 1, 5, 3, 0.05, None),
    "j": ("fast", 1, 1, 4, 0, 0.09, ("nope",)),   # rejected at the door
    "k": ("standard", 1, 2, 13, 0, 0.09, None),
    "l": ("fast", 2, 2, 21, 3, 0.09, None),
}


def _pinned_duration(result):
    return result["forwards"] * (0.004 + 0.004 * result["members"])


def scenario_requests(serve_world, ids=SCENARIO):
    archive, _, _, idx = serve_world
    return [ForecastRequest(
        init_state=archive.fields[idx + off], start_index=idx + off,
        n_steps=steps, n_members=members, tier=tier, seed=seed,
        variables=variables, arrival_s=arrival, request_id=rid)
        for rid, (tier, members, steps, seed, off, arrival, variables)
        in SCENARIO.items() if rid in ids]


def golden_record(serve_world):
    """Serve SCENARIO on two workers under a validator, two seeded
    forecast poisons on consecutive dispatches (the second batch is healed
    by its re-run, the next one exhausts the re-run budget) and one worker
    fail-stop, with the virtual clock pinned; every observable of every
    response plus the final tally and cache stats."""
    from repro.resilience import ComputeFault
    from repro.serve import ForecastValidator
    archive = serve_world[0]
    plan = FaultPlan(seed=5, events=(
        ComputeFault(step=1, site="forecast"),
        ComputeFault(step=3, site="forecast"),
        ComputeFault(step=4, site="forecast"),
        FailStop(rank=0, step=6)))
    svc = make_service(
        serve_world, with_student=True,
        config=ServiceConfig(n_workers=2,
                             batcher=BatcherConfig(max_members=6)),
        validator=ForecastValidator.from_normalizer(
            archive.state_normalizer()),
        injector=FaultInjector(plan), duration_fn=_pinned_duration)
    rows = []
    for r in svc.run(scenario_requests(serve_world)):
        rows.append({
            "id": r.request.request_id, "status": r.status,
            "error": r.error, "version": r.version, "worker": r.worker,
            "latency_s": r.latency_s, "queue_wait_s": r.queue_wait_s,
            "batch_forwards": r.batch_forwards,
            "batch_members": r.batch_members,
            "cache_hits": r.cache_hits, "cache_misses": r.cache_misses,
            "quarantines": r.quarantines,
            "forecast_sha256": (None if r.forecast is None else
                                hashlib.sha256(np.ascontiguousarray(
                                    r.forecast).tobytes()).hexdigest())})
    return {"responses": rows, "tally": dict(svc.tally),
            "cache": svc.stats()["cache"],
            "injected": dict(svc.pool.injector.injected)}


class TestPinnedScenario:
    def test_reproduces_the_committed_golden(self, serve_world):
        """Status, error, version, worker, virtual times, batch shape,
        cache accounting, quarantines and forecast bytes of every
        response — recorded before the batch executor and the guardrail
        loop moved, so any drift in either is a diff against this file."""
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert golden_record(serve_world) == golden

    @pytest.mark.parametrize("config", [
        ServiceConfig(n_workers=1), ServiceConfig(n_workers=3),
        ServiceConfig(n_workers=2, batcher=BatcherConfig(max_members=4)),
        # one byte: every put is refused, i.e. the cache is off
        ServiceConfig(n_workers=2, cache_bytes=1)],
        ids=["1-worker", "3-workers", "4-row-batches", "no-cache"])
    def test_forecasts_do_not_depend_on_how_they_were_served(
            self, serve_world, config):
        """Metamorphic: worker count, batch budget and cache on/off move
        batches, latencies and hit counts — never a forecast bit."""
        ids = set(SCENARIO) - {"j"}

        def served(cfg):
            svc = make_service(serve_world, with_student=True, config=cfg,
                               duration_fn=_pinned_duration)
            out = {r.request.request_id: r
                   for r in svc.run(scenario_requests(serve_world, ids))}
            assert all(r.ok for r in out.values())
            return out

        reference = served(ServiceConfig(n_workers=2))
        variant = served(config)
        assert set(variant) == ids
        for rid, resp in reference.items():
            np.testing.assert_array_equal(variant[rid].forecast,
                                          resp.forecast, err_msg=rid)
