"""Fault-injection unit coverage: checksums, retry policy, injector
determinism, and the self-healing behaviour of ``SimCluster`` transfers."""

import numpy as np
import pytest

from repro.obs import observed
from repro.parallel import SimCluster
from repro.resilience import (
    BitFlip,
    RetryBudget,
    CommTimeout,
    Drop,
    FailStop,
    FaultInjector,
    FaultPlan,
    MessageCorruption,
    RankFailure,
    RetryPolicy,
    Straggle,
    payload_checksum,
)


class TestChecksum:
    def test_roundtrip(self):
        a = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        back = np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)
        assert payload_checksum(back) == payload_checksum(a)

    def test_detects_single_bit_flip(self):
        a = np.ones((3, 3), dtype=np.float32)
        raw = bytearray(a.tobytes())
        raw[7] ^= 1
        b = np.frombuffer(bytes(raw), dtype=a.dtype).reshape(a.shape)
        assert payload_checksum(b) != payload_checksum(a)

    def test_binds_dtype_and_shape(self):
        a = np.zeros(8, dtype=np.float32)
        assert payload_checksum(a) != payload_checksum(
            a.astype(np.float64))
        assert payload_checksum(a) != payload_checksum(a.reshape(2, 4))


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_retries=4, base_backoff_s=0.01,
                             backoff_factor=2.0, max_backoff_s=10.0)
        waits = policy.schedule()
        assert waits == [0.01, 0.02, 0.04, 0.08]

    def test_backoff_capped(self):
        policy = RetryPolicy(max_retries=6, base_backoff_s=1.0,
                             backoff_factor=10.0, max_backoff_s=5.0)
        assert policy.backoff_s(6) == 5.0


class TestFaultInjector:
    def test_deterministic_per_seed(self):
        plan = FaultPlan(seed=5, p_bitflip=0.3, p_drop=0.3, p_straggle=0.3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        faults_a = [a.transfer_fault("p2p", 0, 1, 0) for _ in range(50)]
        faults_b = [b.transfer_fault("p2p", 0, 1, 0) for _ in range(50)]
        assert faults_a == faults_b
        assert any(f for f, _ in faults_a)  # the rates actually fire

    def test_scheduled_event_hits_nth_transfer_only(self):
        inj = FaultInjector(FaultPlan(
            events=(BitFlip(step=0, primitive="p2p", nth=1),)))
        assert inj.transfer_fault("p2p", 0, 1, 0) == (None, 0.0)
        assert inj.transfer_fault("p2p", 0, 1, 0)[0] == "flip"
        assert inj.transfer_fault("p2p", 0, 1, 0) == (None, 0.0)

    def test_scheduled_event_spares_retries(self):
        inj = FaultInjector(FaultPlan(events=(Drop(step=0, nth=0),)))
        assert inj.transfer_fault("p2p", 0, 1, 0)[0] == "drop"
        # The re-send (attempt 1) is clean: retries heal scheduled faults.
        assert inj.transfer_fault("p2p", 0, 1, 1) == (None, 0.0)

    def test_failstop_due_at_step(self):
        inj = FaultInjector(FaultPlan(events=(FailStop(rank=3, step=2),)))
        inj.raise_if_dead([3], "allreduce")  # alive before step 2
        inj.advance(2)
        with pytest.raises(RankFailure) as err:
            inj.raise_if_dead([0, 3], "allreduce")
        assert err.value.rank == 3
        assert err.value.primitive == "allreduce"

    def test_reset_grid_retires_spent_failstops(self):
        inj = FaultInjector(FaultPlan(events=(FailStop(rank=1, step=0),)))
        assert inj.dead == {1}
        inj.reset_grid()
        assert inj.dead == set()
        inj.advance(5)  # the consumed event must not re-kill the new rank 1
        assert inj.dead == set()

    def test_corrupt_flips_exactly_one_bit(self):
        inj = FaultInjector(FaultPlan(seed=9))
        a = np.random.default_rng(1).normal(size=16).astype(np.float32)
        b = inj.corrupt(a)
        diff = np.bitwise_xor(a.view(np.uint32), b.view(np.uint32))
        assert sum(int(x).bit_count() for x in diff) == 1

    def test_injected_tally(self):
        inj = FaultInjector(FaultPlan(
            events=(BitFlip(nth=0), Straggle(nth=1, delay_s=0.5))))
        inj.transfer_fault("p2p", 0, 1, 0)
        inj.transfer_fault("p2p", 0, 1, 0)
        assert inj.injected["flip"] == 1
        assert inj.injected["straggler"] == 1


class TestSelfHealingTransfers:
    def test_bitflip_detected_and_healed(self):
        inj = FaultInjector(FaultPlan(
            events=(BitFlip(step=0, primitive="p2p", nth=0),)))
        cluster = SimCluster(2, injector=inj)
        payload = np.arange(8, dtype=np.float32)
        with observed() as (tracer, registry):
            out = cluster.send(0, 1, payload)
            np.testing.assert_array_equal(out, payload)  # healed bit-exactly
            assert registry.counter("comm.faults_detected").total(
                kind="flip") == 1
            assert registry.counter("comm.retries").total() == 1
            assert len(tracer.select(category="resilience")) == 1

    def test_drop_retried_then_delivered(self):
        inj = FaultInjector(FaultPlan(
            events=(Drop(step=0, primitive="p2p", nth=0),)))
        cluster = SimCluster(2, injector=inj)
        payload = np.ones(4, dtype=np.float32)
        out = cluster.send(0, 1, payload)
        np.testing.assert_array_equal(out, payload)

    def test_permanent_corruption_raises_typed_error(self):
        inj = FaultInjector(FaultPlan(seed=0, p_bitflip=1.0))
        cluster = SimCluster(2, injector=inj,
                             retry=RetryPolicy(max_retries=2))
        with pytest.raises(MessageCorruption):
            cluster.send(0, 1, np.ones(4, dtype=np.float32))

    def test_permanent_drop_raises_timeout(self):
        inj = FaultInjector(FaultPlan(seed=0, p_drop=1.0))
        cluster = SimCluster(2, injector=inj,
                             retry=RetryPolicy(max_retries=2))
        with pytest.raises(CommTimeout):
            cluster.send(0, 1, np.ones(4, dtype=np.float32))

    def test_dead_rank_fails_every_collective(self):
        inj = FaultInjector(FaultPlan(events=(FailStop(rank=1, step=0),)))
        cluster = SimCluster(4, injector=inj)
        arrays = [np.ones(4, dtype=np.float32) for _ in range(4)]
        with pytest.raises(RankFailure):
            cluster.allreduce([0, 1, 2, 3], arrays)
        with pytest.raises(RankFailure):
            cluster.alltoall([0, 1, 2, 3], [arrays] * 4)
        with pytest.raises(RankFailure):
            cluster.send(0, 1, arrays[0])
        cluster.send(0, 2, arrays[0])  # survivors keep talking

    def test_straggler_metered_not_retried(self):
        inj = FaultInjector(FaultPlan(
            events=(Straggle(step=0, primitive="p2p", nth=0,
                             delay_s=0.25),)))
        cluster = SimCluster(2, injector=inj)
        payload = np.ones(4, dtype=np.float32)
        with observed() as (tracer, registry):
            cluster.send(0, 1, payload)
            hist = registry.histogram("comm.straggler_s")
            stats = hist.stats(primitive="p2p")
            assert stats["count"] == 1
            assert stats["max"] == 0.25
            assert registry.counter("comm.retries").total() == 0

    def test_no_injector_books_bytes_once(self):
        plain = SimCluster(2)
        faulty = SimCluster(2, injector=FaultInjector(FaultPlan()))
        payload = np.ones(16, dtype=np.float32)
        plain.send(0, 1, payload)
        faulty.send(0, 1, payload)
        assert plain.stats.bytes == faulty.stats.bytes
        assert plain.stats.ops == faulty.stats.ops


class TestJitterAndBudget:
    def test_full_jitter_draws_inside_the_envelope(self):
        policy = RetryPolicy(max_retries=5, base_backoff_s=0.01,
                             backoff_factor=2.0, jitter=1.0)
        rng = np.random.default_rng(0)
        for attempt in range(1, 6):
            cap = policy.base_backoff_s * 2.0 ** (attempt - 1)
            draws = [policy.backoff_s(attempt, rng=rng)
                     for _ in range(200)]
            assert all(0.0 <= d <= cap for d in draws)
            assert len(set(draws)) > 1  # actually jittered, not the cap

    def test_partial_jitter_keeps_a_floor(self):
        policy = RetryPolicy(base_backoff_s=0.01, jitter=0.25)
        rng = np.random.default_rng(1)
        draws = [policy.backoff_s(1, rng=rng) for _ in range(200)]
        assert all(0.0075 <= d <= 0.01 for d in draws)

    def test_jitter_without_rng_is_the_deterministic_cap(self):
        policy = RetryPolicy(base_backoff_s=0.01, jitter=1.0)
        assert policy.backoff_s(1) == 0.01

    def test_jitter_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_budget_charges_until_exhausted(self):
        budget = RetryPolicy(max_retry_s=0.1,
                             max_retry_bytes=100).budget()
        assert budget.charge(seconds=0.05, nbytes=40)
        assert not budget.exhausted
        assert not budget.charge(seconds=0.2)  # over the time cap
        assert budget.exhausted

    def test_budget_byte_cap(self):
        budget = RetryBudget(max_retry_bytes=10)
        assert budget.charge(nbytes=10)  # at the cap is still fine
        assert not budget.charge(nbytes=1)

    def test_unlimited_budget_never_exhausts(self):
        budget = RetryPolicy().budget()
        assert budget.charge(seconds=1e9, nbytes=1 << 40)

    def test_transfer_escalates_on_spent_budget(self):
        """A sick link must stop grinding through max_retries once the
        per-operation budget is gone — and the escalation is booked."""
        inj = FaultInjector(FaultPlan(seed=0, p_drop=1.0))
        cluster = SimCluster(2, injector=inj,
                             retry=RetryPolicy(max_retries=50,
                                               base_backoff_s=0.01,
                                               max_retry_s=0.05))
        with observed() as (_, registry):
            with pytest.raises(CommTimeout, match="budget exhausted"):
                cluster.send(0, 1, np.ones(4, dtype=np.float32))
            assert registry.counter("comm.budget_exhaustions").total(
                primitive="p2p") == 1
            # Far fewer than 50 retries were attempted.
            assert registry.counter("comm.retries").total() < 20
