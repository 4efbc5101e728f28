"""Admission queue ordering/backpressure and micro-batch coalescing."""

import numpy as np
import pytest

from repro.serve import (AdmissionQueue, BatcherConfig, ForecastRequest,
                         MicroBatcher, QueueConfig, Rejected, TierPolicy,
                         TierRouter)

STATE = np.zeros((4, 8, 3), dtype=np.float32)


def req(tier="standard", members=1, steps=1, seed=0, arrival=0.0):
    return ForecastRequest(init_state=STATE, n_steps=steps,
                           n_members=members, tier=tier, seed=seed,
                           arrival_s=arrival)


def make_queue(max_depth=256, **tier_overrides):
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
    return AdmissionQueue(router, QueueConfig(max_depth=max_depth))


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
        q = make_queue(max_depth=2)
        q.submit(req(seed=0), 0.0)
        q.submit(req(seed=1), 0.0)
        with pytest.raises(Rejected) as info:
            q.submit(req(seed=2), 0.0)
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
