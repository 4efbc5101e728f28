"""Hypothesis property tests for the parallel substrate: collectives,
topology, and sharding invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import dot_product_attention
from repro.parallel import (
    RankTopology,
    SimCluster,
    WindowSharding,
    shard_sequence,
    ulysses_attention,
)
from repro.tensor import Tensor


@st.composite
def topologies(draw):
    dp = draw(st.integers(1, 3))
    pp = draw(st.integers(1, 4))
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 3))
    sp = draw(st.integers(1, 3))
    return RankTopology(dp=dp, pp=pp, wp_grid=(a, b), sp=sp)


class TestTopologyProperties:
    @given(topologies())
    @settings(max_examples=50, deadline=None)
    def test_rank_bijection(self, topo):
        seen = set()
        for rank in range(topo.world_size):
            coords = topo.coords_of(rank)
            assert topo.rank_of(*coords) == rank
            seen.add(coords)
        assert len(seen) == topo.world_size

    @given(topologies())
    @settings(max_examples=30, deadline=None)
    def test_sp_groups_partition(self, topo):
        all_ranks = []
        for dp in range(topo.dp):
            for pp in range(topo.pp):
                for wp in range(topo.wp):
                    all_ranks.extend(topo.sp_group(dp, pp, wp))
        assert sorted(all_ranks) == list(range(topo.world_size))

class TestCollectiveProperties:
    @given(st.integers(2, 6), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_invariant_to_rank_data_permutation(self, n, size):
        rng = np.random.default_rng(size)
        arrays = [rng.normal(size=size).astype(np.float32) for _ in range(n)]
        cluster = SimCluster(n)
        out = cluster.allreduce(list(range(n)), arrays)
        out_perm = SimCluster(n).allreduce(list(range(n)), arrays[::-1])
        np.testing.assert_allclose(out, out_perm, rtol=1e-5)

    @given(st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_alltoall_is_transpose(self, n):
        """alltoall twice returns the original chunk matrix."""
        rng = np.random.default_rng(n)
        chunks = [[rng.normal(size=3).astype(np.float32) for _ in range(n)]
                  for _ in range(n)]
        cluster = SimCluster(n)
        once = cluster.alltoall(list(range(n)), chunks)
        twice = cluster.alltoall(list(range(n)), once)
        for i in range(n):
            for j in range(n):
                np.testing.assert_array_equal(twice[i][j], chunks[i][j])


class TestUlyssesProperties:
    @given(st.sampled_from([1, 2, 4]), st.sampled_from([4, 8]),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(self, sp, heads, seed):
        rng = np.random.default_rng(seed)
        tokens = 8
        shape = (2, tokens, heads, 4)
        q = rng.normal(size=shape).astype(np.float32)
        k = rng.normal(size=shape).astype(np.float32)
        v = rng.normal(size=shape).astype(np.float32)
        ref = np.swapaxes(dot_product_attention(
            *(Tensor(np.swapaxes(x, -2, -3)) for x in (q, k, v))).numpy(),
            -2, -3)
        out = np.concatenate(ulysses_attention(
            SimCluster(sp), list(range(sp)),
            shard_sequence(q, sp), shard_sequence(k, sp),
            shard_sequence(v, sp)), axis=-3)
        np.testing.assert_array_equal(out, ref)


class TestWindowShardingProperties:
    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
           st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_shard_partition_of_identity(self, wp_grid, seed):
        rng = np.random.default_rng(seed)
        sharding = WindowSharding((8, 8), (4, 4), wp_grid)
        image = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        shards = sharding.shard(image)
        # Every pixel appears exactly once across shards.
        total = sum(s.size for s in shards)
        assert total == image.size
        np.testing.assert_array_equal(sharding.unshard(shards), image)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_parallel_apply_linearity(self, seed):
        """parallel_apply commutes with any linear per-window map."""
        rng = np.random.default_rng(seed)
        sharding = WindowSharding((8, 8), (4, 4), (2, 2))
        image = rng.normal(size=(1, 8, 8, 2)).astype(np.float32)
        out = sharding.parallel_apply(image, lambda s: 3.0 * s, shifted=True)
        np.testing.assert_allclose(out, 3.0 * image, rtol=1e-6)
