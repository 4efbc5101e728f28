"""Admission queue ordering/backpressure and micro-batch coalescing."""

import numpy as np
import pytest

from repro.serve import (AdmissionQueue, BatcherConfig, ForecastRequest,
                         MicroBatcher, Rejected, TierPolicy, TierRouter)
from repro.serve.queue import MAX_QUEUE_DEPTH

STATE = np.zeros((4, 8, 3), dtype=np.float32)


def req(tier="standard", members=1, steps=1, seed=0, arrival=0.0):
    return ForecastRequest(init_state=STATE, n_steps=steps,
                           n_members=members, tier=tier, seed=seed,
                           arrival_s=arrival)


def make_queue(**tier_overrides):
    router = TierRouter()
    for name, kwargs in tier_overrides.items():
        base = router.route(name)
        router = router.with_policy(TierPolicy(
            name=name, priority=base.priority,
            solver_config=base.solver_config,
            deadline_s=kwargs.get("deadline_s", base.deadline_s),
            slo_s=base.slo_s,
            max_queue_depth=kwargs.get("max_queue_depth",
                                       base.max_queue_depth)))
    return AdmissionQueue(router)


class TestAdmissionQueue:
    def test_priority_then_fifo(self):
        q = make_queue()
        q.submit(req("high", seed=1), now=0.0)
        q.submit(req("standard", seed=2), now=0.0)
        q.submit(req("fast", seed=3), now=0.0)
        q.submit(req("standard", seed=4), now=0.0)
        order = [q.pop().request for _ in range(4)]
        assert [r.tier for r in order] == ["fast", "standard", "standard",
                                          "high"]
        assert [r.seed for r in order if r.tier == "standard"] == [2, 4]

    def test_global_backpressure(self):
        """The global cap binds across tiers, even where every tier cap
        has room."""
        q = make_queue(standard={"max_queue_depth": 1000})
        for seed in range(MAX_QUEUE_DEPTH):
            q.submit(req(seed=seed), 0.0)
        with pytest.raises(Rejected) as info:
            q.submit(req("fast"), 0.0)
        assert info.value.reason == "queue_full"

    def test_per_tier_backpressure(self):
        q = make_queue(high={"max_queue_depth": 1})
        q.submit(req("high", seed=0), 0.0)
        with pytest.raises(Rejected) as info:
            q.submit(req("high", seed=1), 0.0)
        assert info.value.reason == "tier_queue_full"
        q.submit(req("standard"), 0.0)  # other tiers unaffected

    def test_deadline_enforced_at_pop(self):
        q = make_queue(standard={"deadline_s": 1.0})
        q.submit(req(seed=0), now=0.0)
        q.submit(req(seed=1), now=5.0)
        live, expired = q.pop_live(now=5.5)
        assert live.request.seed == 1
        assert [p.request.seed for p in expired] == [0]
        assert len(q) == 0


class TestMicroBatcher:
    def test_coalesces_same_tier_fifo(self):
        q = make_queue()
        for seed in range(3):
            q.submit(req(members=2, seed=seed), 0.0)
        batch, expired = MicroBatcher(q).next_batch(now=0.0)
        assert not expired
        assert [p.request.seed for p in batch.requests] == [0, 1, 2]
        assert batch.n_members == 6 and len(q) == 0

    def test_never_mixes_tiers(self):
        q = make_queue()
        q.submit(req("standard", seed=0), 0.0)
        q.submit(req("high", seed=1), 0.0)
        q.submit(req("standard", seed=2), 0.0)
        batch, _ = MicroBatcher(q).next_batch(now=0.0)
        assert {p.request.tier for p in batch.requests} == {"standard"}
        assert [p.request.seed for p in batch.requests] == [0, 2]
        assert q.pop().request.tier == "high"

    def test_member_budget_requeues_oversize_tail(self):
        q = make_queue()
        q.submit(req(members=3, seed=0), 0.0)
        q.submit(req(members=3, seed=1), 0.0)
        batcher = MicroBatcher(q, BatcherConfig(max_members=4))
        first, _ = batcher.next_batch(now=0.0)
        assert [p.request.seed for p in first.requests] == [0]
        second, _ = batcher.next_batch(now=0.0)
        assert [p.request.seed for p in second.requests] == [1]

    def test_request_budget(self):
        q = make_queue()
        for seed in range(4):
            q.submit(req(seed=seed), 0.0)
        batcher = MicroBatcher(q, BatcherConfig(max_requests=3))
        batch, _ = batcher.next_batch(now=0.0)
        assert len(batch.requests) == 3 and len(q) == 1

    def test_empty_queue_yields_no_batch(self):
        batch, expired = MicroBatcher(make_queue()).next_batch(now=0.0)
        assert batch is None and expired == []

    def test_member_tasks_follow_seed_convention(self):
        q = make_queue()
        q.submit(req(members=3, seed=7, steps=4), 0.0)
        batch, _ = MicroBatcher(q).next_batch(now=0.0)
        tasks = MicroBatcher.member_tasks(batch)
        assert [t.member_seed for t in tasks] == [7, 1007, 2007]
        assert all(t.target == 4 and t.lead == 0 for t in tasks)
        assert all(t.state.dtype == np.float32 for t in tasks)
        # Each member draws from its own stream, like ensemble_rollout.
        a = tasks[0].rng.normal()
        b = np.random.default_rng(7).normal()
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("members", [1, 4])
    def test_one_member_seed_convention_everywhere(self, seed, members):
        """``member_seed`` is part of every cache key: the served member
        tasks, the diffusion forecaster's generators and the one-step
        student's noise must all draw member ``m`` from the same stream."""
        from repro.diffusion import (ResidualForecaster, TrigFlow,
                                     member_seed)
        from repro.serve import OneStepForecaster
        from repro.tensor import Tensor

        expected = [member_seed(seed, m) for m in range(members)]
        assert expected == [seed + 1000 * m for m in range(members)]
        q = make_queue()
        q.submit(req(members=members, seed=seed), 0.0)
        batch, _ = MicroBatcher(q).next_batch(now=0.0)
        tasks = MicroBatcher.member_tasks(batch)
        assert [t.member_seed for t in tasks] == expected

        flow = TrigFlow()
        draws = [np.random.default_rng(s).normal(0.0, flow.sigma_d,
                                                 size=STATE.shape)
                 for s in expected]
        for task, rng, want in zip(
                tasks, ResidualForecaster.member_rngs(None, members, seed),
                draws):
            for stream in (task.rng, rng):
                np.testing.assert_array_equal(
                    stream.normal(0.0, flow.sigma_d, size=STATE.shape), want)

        class Identity:
            def normalize(self, x):
                return x

            def denormalize(self, x):
                return x

        seen = []

        def student(x, t, cond, forc):
            seen.append(x.numpy())
            return Tensor(np.zeros_like(x.numpy()))

        OneStepForecaster(
            model=student, state_norm=Identity(), residual_norm=Identity(),
            forcing_fn=lambda i: np.zeros(STATE.shape[:2] + (1,), np.float32),
            flow=flow).ensemble_rollout(STATE, n_steps=1, n_members=members,
                                        seed=seed)
        np.testing.assert_array_equal(
            seen[0], np.stack([d.astype(np.float32) for d in draws])
            / flow.sigma_d)


class SpyStepper:
    """Delegates to a tier's stepper, recording the rows of every call."""

    def __init__(self, inner):
        self.inner, self.rows = inner, []

    def step_members(self, states, time_indices, rngs):
        self.rows.append(len(states))
        assert len(states) == len(time_indices) == len(rngs)
        return self.inner.step_members(states, time_indices, rngs)


class TestSingleFlight:
    """Tasks of one batch about to compute the same content address share
    one row (``execute_batch``): the forecasts, the per-response cache
    accounting and ``members`` are what they were when every copy was
    computed; only rows and ``put``\\ s fall."""

    #: (members, lead), all on one (init, seed, start): in task order the
    #: 4x1 request leads lead 1, the 2x2 request lead 2 of member 1, and the
    #: 4x4 request — a follower until then — carries on alone.
    REQUESTS = ((4, 1), (2, 2), (4, 4), (1, 4))
    SEED = 7

    def serve(self, serve_world, tier, warm, **config):
        from repro.serve import ServiceConfig
        from .test_service import make_service, request, serve
        svc = make_service(serve_world, with_student=True,
                           config=ServiceConfig(**config))
        if warm:    # member 0's first two leads are cached beforehand
            serve(svc, request(serve_world, tier=tier, n_members=1,
                              n_steps=2, seed=self.SEED))
        steppers = svc.versions.bindings[svc.versions.active].steppers
        spy = steppers[tier] = SpyStepper(steppers[tier])
        puts = []
        put = svc.cache.put

        def counted_put(key, state, rng_state):
            puts.append(key)
            return put(key, state, rng_state)

        svc.cache.put = counted_put
        responses = svc.run([
            request(serve_world, tier=tier, n_members=m, n_steps=n,
                    seed=self.SEED, arrival_s=0.0)
            for m, n in self.REQUESTS])
        return svc, spy, puts, responses

    def check_forecasts(self, serve_world, spy, responses):
        archive, _, _, idx = serve_world
        assert [r.status for r in responses] == ["completed"] * 4
        for resp, (m, n) in zip(responses, self.REQUESTS):
            direct = spy.inner.ensemble_rollout(
                archive.fields[idx], n_steps=n, n_members=m, seed=self.SEED,
                start_index=idx)
            assert resp.forecast.dtype == np.float32
            np.testing.assert_array_equal(resp.forecast, direct)
            assert resp.batch_members == 11     # requested rows, as before

    @pytest.mark.parametrize("tier", ["fast", "standard"])
    def test_duplicates_never_change_a_forecast_bit(self, serve_world, tier,
                                                    obs_on):
        svc, spy, puts, responses = self.serve(serve_world, tier, warm=True)
        self.check_forecasts(serve_world, spy, responses)
        # Member 0 resumes at lead 2 in every request that goes further.
        # Addresses per step: {m0 l3, m1-3 l1}, {m0 l4, m1-3 l2}, then
        # members 1-3 of the 4x4 request alone, twice.
        assert spy.rows == [4, 4, 3, 3]
        assert len(puts) == len(set(puts)) == 14
        assert svc.pool.n_dispatches == 2       # the warm-up and the batch
        # Per-response accounting is per task, exactly as without flights.
        assert [(r.cache_hits, r.cache_misses) for r in responses] \
            == [(1, 3), (2, 1), (2, 4), (2, 1)]
        steps = svc.router.route(tier).forwards_per_data_step()
        assert {r.batch_forwards for r in responses} == {4 * steps}
        coalesced = obs_on.metrics().counter("serve.coalesced_steps")
        assert coalesced.value(tier=tier) == (9 - 4) + (6 - 4)
        assert coalesced.total() == coalesced.value(tier=tier)

    def test_flights_coalesce_with_the_cache_off(self, serve_world):
        # one byte: every put is refused, so nothing is ever resumed
        svc, spy, puts, responses = self.serve(serve_world, "fast",
                                               warm=True, cache_bytes=1)
        self.check_forecasts(serve_world, spy, responses)
        assert spy.rows == [4, 4, 4, 4]
        assert len(puts) == len(set(puts)) == 16 and len(svc.cache) == 0
        assert [(r.cache_hits, r.cache_misses) for r in responses] \
            == [(0, 4), (0, 2), (0, 4), (0, 1)]

    def test_follower_continues_from_its_leaders_generator(self):
        """``("fast", 2, 2)`` beside ``("fast", 4, 4)`` on one seed: the
        short request leads members 0-1 through lead 2 and is done; the long
        one's members — followers until then — must draw lead 3 from where
        those generators stopped, not from their own, never advanced."""
        from repro.diffusion import member_seed
        from repro.serve import ForecastCache, execute_batch
        q = make_queue()
        for members, steps in ((2, 2), (4, 4)):
            q.submit(req("fast", members=members, steps=steps, seed=7), 0.0)
        batch, _ = MicroBatcher(q).next_batch(now=0.0)
        fed = []    # per call, where every generator handed in stands

        class Stepper:
            def step_members(self, states, time_indices, rngs):
                fed.append([rng.bit_generator.state["state"]
                            for rng in rngs])
                return states + np.stack([
                    rng.normal(size=STATE.shape) for rng in rngs
                ]).astype(np.float32)

        cache = ForecastCache(1 << 20)
        result = execute_batch(batch, Stepper(), cache, "weights", "solver")
        lone = [np.random.default_rng(member_seed(7, m)) for m in range(4)]
        assert len(fed) == 4
        for step in fed:
            assert step == [rng.bit_generator.state["state"] for rng in lone]
            for rng in lone:
                rng.normal(size=STATE.shape)
        short, long = (row["forecast"] for row in result["rows"])
        np.testing.assert_array_equal(short, long[:2, :3])
        assert not np.shares_memory(short, long)
        assert result["members"] == 6 and len(cache) == 16
