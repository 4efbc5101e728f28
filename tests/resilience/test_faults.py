"""Fault-injection unit coverage: checksums, retry backoff, injector
determinism, and the self-healing behaviour of ``SimCluster`` transfers."""

import numpy as np
import pytest

from repro.obs import observed
from repro.parallel import SimCluster
from repro.resilience import (
    BitFlip,
    CommTimeout,
    Drop,
    FailStop,
    FaultInjector,
    FaultPlan,
    MessageCorruption,
    RankFailure,
    Straggle,
    payload_checksum,
)
from repro.resilience.retry import MAX_BACKOFF_S, MAX_RETRIES, backoff_s


def _p2p(cluster, src, dst, payload):
    """One checksummed point-to-point message, as a pipeline handoff."""
    cluster.transfer("p2p", src, dst, payload.nbytes, payload=payload)


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
        waits = [backoff_s(a) for a in range(1, 9)]
        assert waits == [0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256,
                         0.512]

    def test_backoff_capped(self):
        assert backoff_s(9) == backoff_s(60) == MAX_BACKOFF_S == 1.0


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
            _p2p(cluster, 0, 1, payload)
            # healed bit-exactly: the caller's payload is never touched
            np.testing.assert_array_equal(payload,
                                          np.arange(8, dtype=np.float32))
            assert registry.counter("comm.faults_detected").total(
                kind="flip") == 1
            assert registry.counter("comm.retries").total() == 1
            assert len(tracer.select(category="resilience")) == 1

    def test_drop_retried_then_delivered(self):
        inj = FaultInjector(FaultPlan(
            events=(Drop(step=0, primitive="p2p", nth=0),)))
        cluster = SimCluster(2, injector=inj)
        payload = np.ones(4, dtype=np.float32)
        _p2p(cluster, 0, 1, payload)
        np.testing.assert_array_equal(payload, np.ones(4, dtype=np.float32))
        assert cluster.stats.total_bytes("p2p") == 2 * payload.nbytes

    def test_permanent_corruption_raises_typed_error(self):
        inj = FaultInjector(FaultPlan(seed=0, p_bitflip=1.0))
        cluster = SimCluster(2, injector=inj)
        with pytest.raises(MessageCorruption):
            _p2p(cluster, 0, 1, np.ones(4, dtype=np.float32))

    def test_permanent_drop_raises_timeout(self):
        inj = FaultInjector(FaultPlan(seed=0, p_drop=1.0))
        cluster = SimCluster(2, injector=inj)
        with pytest.raises(CommTimeout):
            _p2p(cluster, 0, 1, np.ones(4, dtype=np.float32))

    def test_dead_rank_fails_every_collective(self):
        inj = FaultInjector(FaultPlan(events=(FailStop(rank=1, step=0),)))
        cluster = SimCluster(4, injector=inj)
        arrays = [np.ones(4, dtype=np.float32) for _ in range(4)]
        with pytest.raises(RankFailure):
            cluster.allreduce([0, 1, 2, 3], arrays)
        with pytest.raises(RankFailure):
            cluster.alltoall([0, 1, 2, 3], [arrays] * 4)
        with pytest.raises(RankFailure):
            _p2p(cluster, 0, 1, arrays[0])
        _p2p(cluster, 0, 2, arrays[0])  # survivors keep talking

    def test_straggler_metered_not_retried(self):
        inj = FaultInjector(FaultPlan(
            events=(Straggle(step=0, primitive="p2p", nth=0,
                             delay_s=0.25),)))
        cluster = SimCluster(2, injector=inj)
        payload = np.ones(4, dtype=np.float32)
        with observed() as (tracer, registry):
            _p2p(cluster, 0, 1, payload)
            hist = registry.histogram("comm.straggler_s")
            stats = hist.stats(primitive="p2p")
            assert stats["count"] == 1
            assert stats["max"] == 0.25
            assert registry.counter("comm.retries").total() == 0

    def test_no_injector_books_bytes_once(self):
        plain = SimCluster(2)
        faulty = SimCluster(2, injector=FaultInjector(FaultPlan()))
        payload = np.ones(16, dtype=np.float32)
        _p2p(plain, 0, 1, payload)
        _p2p(faulty, 0, 1, payload)
        assert plain.stats.bytes == faulty.stats.bytes
        assert plain.stats.ops == faulty.stats.ops


class TestJitterAndBudget:
    """The retry knobs are constants: no jittered draw, no spend cap."""

    def test_jitter_without_rng_is_the_deterministic_cap(self):
        """Two clusters that retry the same faults book the same waits:
        every wait is the cap of its attempt."""
        waits = []
        for _ in range(2):
            cluster = SimCluster(2, injector=FaultInjector(
                FaultPlan(seed=0, p_drop=1.0)))
            with observed() as (_, registry):
                with pytest.raises(CommTimeout):
                    _p2p(cluster, 0, 1, np.ones(4, dtype=np.float32))
                waits.append(registry.histogram("comm.backoff_s").stats(
                    primitive="p2p"))
            assert sum(cluster.stats.ops.values()) == MAX_RETRIES + 1
        assert waits[0] == waits[1]
        assert waits[0]["count"] == MAX_RETRIES
        assert waits[0]["sum"] == sum(backoff_s(a)
                                      for a in range(1, MAX_RETRIES + 1))

    def test_unlimited_budget_never_exhausts(self):
        """A payload of any size heals after a drop: re-sent bytes are
        metered, never capped."""
        inj = FaultInjector(FaultPlan(
            events=(Drop(step=0, primitive="p2p", nth=0),)))
        cluster = SimCluster(2, injector=inj)
        payload = np.ones(1 << 16, dtype=np.float32)
        with observed() as (_, registry):
            _p2p(cluster, 0, 1, payload)
            np.testing.assert_array_equal(payload,
                                          np.ones(1 << 16, dtype=np.float32))
            assert registry.counter("comm.retries").total() == 1
        assert cluster.stats.total_bytes("p2p") == 2 * payload.nbytes
