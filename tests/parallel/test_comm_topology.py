"""Tests for the simulated cluster and rank topology."""

import numpy as np
import pytest

from repro.parallel import RankTopology, SimCluster

rng = np.random.default_rng(0)


class TestSimCluster:
    def test_send_meters_bytes(self):
        cluster = SimCluster(4, ranks_per_node=2)
        cluster.transfer("p2p", 0, 1, 400)   # same node
        cluster.transfer("p2p", 0, 2, 400)   # different node
        assert cluster.stats.bytes[("p2p", "intra")] == 400
        assert cluster.stats.bytes[("p2p", "inter")] == 400

    def test_alltoall_routes_correctly(self):
        cluster = SimCluster(3)
        chunks = [[np.full(2, 10 * i + j, dtype=np.float32) for j in range(3)]
                  for i in range(3)]
        out = cluster.alltoall([0, 1, 2], chunks)
        # out[j][i] is what j received from i.
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(out[j][i], 10 * i + j)

    def test_alltoall_bytes_exclude_self(self):
        cluster = SimCluster(2)
        chunk = np.zeros(10, dtype=np.float32)  # 40 bytes
        cluster.alltoall([0, 1], [[chunk, chunk], [chunk, chunk]])
        assert cluster.stats.total_bytes("alltoall") == 2 * 40

    def test_allreduce_sums(self):
        cluster = SimCluster(4)
        arrays = [np.full(5, float(i)) for i in range(4)]
        out = cluster.allreduce([0, 1, 2, 3], arrays)
        np.testing.assert_array_equal(out, np.full(5, 6.0))

    def test_allreduce_ring_volume(self):
        cluster = SimCluster(4)
        arrays = [np.zeros(100, dtype=np.float32) for _ in range(4)]
        cluster.allreduce([0, 1, 2, 3], arrays)
        # Ring: 2(n-1)/n per rank, summed over n ranks.
        assert cluster.stats.total_bytes("allreduce") == int(2 * 3 / 4 * 400) * 4

    def test_node_mapping(self):
        cluster = SimCluster(12, ranks_per_node=3)
        assert cluster.node_of(0) == 0
        assert cluster.node_of(2) == 0
        assert cluster.node_of(3) == 1
        assert cluster.node_of(11) == 3

    def test_invalid_shapes_rejected(self):
        cluster = SimCluster(2)
        with pytest.raises(ValueError):
            cluster.alltoall([0, 1], [[np.zeros(1)]])
        with pytest.raises(ValueError):
            SimCluster(5, ranks_per_node=2)


class TestRankTopology:
    def test_world_size(self):
        topo = RankTopology(dp=2, pp=3, wp_grid=(2, 2), sp=2)
        assert topo.world_size == 2 * 3 * 4 * 2
        assert topo.nodes == 2 * 3 * 4

    def test_rank_roundtrip(self):
        topo = RankTopology(dp=2, pp=3, wp_grid=(2, 1), sp=2)
        for rank in range(topo.world_size):
            coords = topo.coords_of(rank)
            assert topo.rank_of(*coords) == rank

    def test_sp_group_is_contiguous_node(self):
        """SP ranks must share a node (intra-node all-to-all, per paper)."""
        topo = RankTopology(dp=1, pp=2, wp_grid=(2, 1), sp=3)
        for pp in range(2):
            for wp in range(2):
                group = topo.sp_group(0, pp, wp)
                assert group == list(range(group[0], group[0] + 3))
                assert group[0] % 3 == 0  # aligned to node boundary

    def test_groups_partition_world(self):
        topo = RankTopology(dp=2, pp=2, wp_grid=(2, 1), sp=2)
        seen = set()
        for dp in range(2):
            for pp in range(2):
                for wp in range(2):
                    seen.update(topo.sp_group(dp, pp, wp))
        assert seen == set(range(topo.world_size))

    def test_paper_configuration_40b(self):
        """40B config: WP=36, PP=20, SP=12 -> 720 nodes per instance; with
        DP=14 -> 10,080 nodes (the full-Aurora run)."""
        topo = RankTopology(dp=14, pp=20, wp_grid=(6, 6), sp=12)
        assert topo.nodes == 10_080
        assert topo.world_size == 120_960

    def test_invalid_coords_raise(self):
        topo = RankTopology(dp=1, pp=1, wp_grid=(1, 1), sp=1)
        with pytest.raises(ValueError):
            topo.rank_of(1, 0, 0, 0)
        with pytest.raises(ValueError):
            topo.coords_of(99)
