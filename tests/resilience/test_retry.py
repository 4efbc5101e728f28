"""Retry edge cases: one deterministic backoff schedule, no spend cap, and
zero-byte transfer retries."""

import pytest

from repro.obs import observed
from repro.parallel.comm import SimCluster
from repro.resilience.faults import Drop, FaultInjector, FaultPlan
from repro.resilience.retry import MAX_RETRIES, backoff_s


class _DropsUntilTheLastRetry(FaultInjector):
    def transfer_fault(self, primitive, src, dst, attempt):
        return ("drop" if attempt < MAX_RETRIES else None), 0.0


class TestBudgetBoundary:
    def test_unlimited_budget_never_exhausts(self):
        """Retries are bounded by count, not by spend: a message that
        drops ``MAX_RETRIES`` times in a row still heals on the last
        re-send, however many bytes the re-sends cost."""
        cluster = SimCluster(2, injector=_DropsUntilTheLastRetry())
        nbytes = 1 << 40
        cluster.transfer("p2p", 0, 1, nbytes)
        assert cluster.stats.total_bytes("p2p") == (MAX_RETRIES + 1) * nbytes


class TestJitterBounds:
    def test_no_rng_means_deterministic_cap(self):
        """There is no jittered draw: every wait is the exponential cap."""
        assert [backoff_s(a) for a in range(1, MAX_RETRIES + 1)] == [
            0.004, 0.008, 0.016]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            backoff_s(0)


class TestZeroByteTransfers:
    """Zero-byte messages (barriers, empty shards) still traverse the
    fault machinery: they can drop, retry, and heal."""

    def test_zero_byte_retry_books_no_retried_bytes(self):
        cluster = SimCluster(2, injector=FaultInjector(FaultPlan(
            events=(Drop(step=0, primitive="p2p", nth=0),), seed=1)))
        with observed() as (_, registry):
            cluster.transfer("p2p", 0, 1, 0)  # drops once, retries, heals
            assert registry.counter("comm.retries").total() == 1
        assert cluster.injector.injected["drop"] == 1
        assert sum(cluster.stats.ops.values()) == 2
        assert cluster.stats.total_bytes() == 0
