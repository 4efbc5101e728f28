"""Byte-accounting coverage for the per-hop ring locality attribution of
``allreduce``, retry traffic under injected faults, and the ``CommStats``
helpers."""

import numpy as np
import pytest

from repro.obs import observed
from repro.parallel import CommStats, SimCluster
from repro.resilience import BitFlip, Drop, FaultInjector, FaultPlan


class TestAllreduceRingLocality:
    def test_mixed_group_attributes_per_hop(self):
        """A group spanning two nodes has 2 intra hops and 2 inter hops
        (ring 0→1→2→3→0 over nodes {0,0,1,1}) — previously the whole ring
        was booked as inter."""
        cluster = SimCluster(4, ranks_per_node=2)
        nbytes = 400
        arrays = [np.zeros(100, dtype=np.float32) for _ in range(4)]
        cluster.allreduce([0, 1, 2, 3], arrays)
        per_hop = int(2 * 3 / 4 * nbytes)
        assert cluster.stats.bytes[("allreduce", "intra")] == 2 * per_hop
        assert cluster.stats.bytes[("allreduce", "inter")] == 2 * per_hop

    def test_total_ring_volume_unchanged(self):
        cluster = SimCluster(4, ranks_per_node=2)
        arrays = [np.zeros(100, dtype=np.float32) for _ in range(4)]
        cluster.allreduce([0, 1, 2, 3], arrays)
        assert cluster.stats.total_bytes("allreduce") == int(2 * 3 / 4 * 400) * 4

    def test_single_node_group_stays_intra(self):
        cluster = SimCluster(4, ranks_per_node=4)
        arrays = [np.zeros(10, dtype=np.float32) for _ in range(4)]
        cluster.allreduce([0, 1, 2, 3], arrays)
        assert cluster.stats.bytes[("allreduce", "inter")] == 0
        assert cluster.stats.bytes[("allreduce", "intra")] > 0

    def test_ring_follows_group_ordering(self):
        """Locality is judged along the *given* ring order: [0, 2, 1, 3]
        over nodes {0,0,1,1} makes every hop inter-node."""
        cluster = SimCluster(4, ranks_per_node=2)
        arrays = [np.zeros(10, dtype=np.float32) for _ in range(4)]
        cluster.allreduce([0, 2, 1, 3], arrays)
        assert cluster.stats.bytes[("allreduce", "intra")] == 0


class TestRetryByteAccounting:
    """Retries are real fabric traffic: every re-sent attempt books its
    bytes again in ``CommStats``, alongside a retry counter in the
    metrics registry."""

    def test_retried_allreduce_books_extra_bytes(self):
        arrays = [np.zeros(100, dtype=np.float32) for _ in range(4)]
        clean = SimCluster(4)
        clean.allreduce([0, 1, 2, 3], arrays)
        base = clean.stats.total_bytes("allreduce")
        per_hop = int(2 * 3 / 4 * 400)

        inj = FaultInjector(FaultPlan(
            events=(BitFlip(step=0, primitive="allreduce", nth=2),)))
        faulty = SimCluster(4, injector=inj)
        with observed() as (_, registry):
            faulty.allreduce([0, 1, 2, 3], arrays)
            assert faulty.stats.total_bytes("allreduce") == base + per_hop
            assert registry.counter("comm.retries").total(
                primitive="allreduce") == 1
            # The registry's byte counter agrees with CommStats, retries
            # included.
            assert registry.counter("comm.bytes").total(
                primitive="allreduce") == base + per_hop

    def test_retried_p2p_books_extra_bytes(self):
        payload = np.zeros(64, dtype=np.float32)  # 256 B
        inj = FaultInjector(FaultPlan(
            events=(Drop(step=0, primitive="p2p", nth=0),
                    Drop(step=0, primitive="p2p", nth=1))))
        cluster = SimCluster(2, injector=inj)
        for src, dst in ((0, 1), (1, 0)):   # each dropped once -> 2 attempts
            cluster.transfer("p2p", src, dst, payload.nbytes, payload=payload)
        assert cluster.stats.total_bytes("p2p") == 4 * 256

    def test_ops_count_attempts(self):
        payload = np.zeros(4, dtype=np.float32)
        inj = FaultInjector(FaultPlan(
            events=(Drop(step=0, primitive="p2p", nth=0),)))
        cluster = SimCluster(2, injector=inj)
        cluster.transfer("p2p", 0, 1, payload.nbytes, payload=payload)
        assert sum(cluster.stats.ops[k] for k in cluster.stats.ops
                   if k[0] == "p2p") == 2


class TestCommStatsHelpers:
    def _stats(self, pairs):
        s = CommStats()
        for primitive, locality, nbytes in pairs:
            s.add(primitive, locality, nbytes)
        return s

    def test_as_table(self):
        s = self._stats([("p2p", "intra", 1000), ("p2p", "inter", 2000),
                         ("alltoall", "intra", 500)])
        table = s.as_table()
        # Byte-identical to the renderer before repro.obs.text_table.
        assert table == (
            "primitive  locality  ops  bytes\n"
            "---------  --------  ---  -----\n"
            "alltoall   intra     1    500\n"
            "p2p        inter     1    2,000\n"
            "p2p        intra     1    1,000\n"
            "total      -         3    3,500")
        lines = table.splitlines()
        assert lines[0].split() == ["primitive", "locality", "ops", "bytes"]
        assert any("p2p" in ln and "intra" in ln and "1,000" in ln
                   for ln in lines)
        assert lines[-1].split()[0] == "total"
        assert "3,500" in lines[-1]

    def test_as_table_empty(self):
        table = CommStats().as_table()
        assert "total" in table and "0" in table
        assert table == ("primitive  locality  ops  bytes\n"
                         "---------  --------  ---  -----\n"
                         "total      -         0    0")
