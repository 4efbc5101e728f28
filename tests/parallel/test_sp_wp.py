"""Functional-equivalence and communication-volume tests for sequence
parallelism (Ulysses) and window parallelism — the core of SWiPe."""

import numpy as np
import pytest

from repro.model import TINY, window_partition
from repro.nn import dot_product_attention
from repro.parallel import (
    SimCluster,
    WindowSharding,
    shard_sequence,
    shift_owner_change_bytes,
    ulysses_attention,
    window_sharding,
)
from repro.parallel.domain_parallel import blocked_assignment
from repro.tensor import Tensor

from .reference_sharding import (
    parent_shift_owner_change_bytes,
    toy_window_attention,
)

rng = np.random.default_rng(0)


class TestUlysses:
    def _qkv(self, n_windows=3, tokens=16, heads=4, hd=8):
        shape = (n_windows, tokens, heads, hd)
        return (rng.normal(size=shape).astype(np.float32),
                rng.normal(size=shape).astype(np.float32),
                rng.normal(size=shape).astype(np.float32))

    def _reference(self, q, k, v):
        """The reference Tensor chain the kernel contract names."""
        qt, kt, vt = (Tensor(np.swapaxes(x, -2, -3)) for x in (q, k, v))
        return np.swapaxes(dot_product_attention(qt, kt, vt).numpy(), -2, -3)

    @pytest.mark.parametrize("sp", [1, 2, 4])
    def test_equivalence_with_unsharded(self, sp):
        q, k, v = self._qkv()
        cluster = SimCluster(sp)
        group = list(range(sp))
        out_shards = ulysses_attention(
            cluster, group,
            shard_sequence(q, sp), shard_sequence(k, sp),
            shard_sequence(v, sp))
        out = np.concatenate(out_shards, axis=-3)
        np.testing.assert_array_equal(out, self._reference(q, k, v))

    def test_message_size_formula(self):
        """All-to-all volume per attention = (SP−1)/SP of the qkv+out data —
        i.e. proportional to M = b·s·h/SP per rank (paper Section V-A)."""
        sp = 4
        q, k, v = self._qkv(tokens=32)
        cluster = SimCluster(sp)
        ulysses_attention(cluster, list(range(sp)),
                          shard_sequence(q, sp), shard_sequence(k, sp),
                          shard_sequence(v, sp))
        payload = q.nbytes + k.nbytes + v.nbytes + q.nbytes  # qkv in, out back
        expected = payload * (sp - 1) / sp
        assert cluster.stats.total_bytes("alltoall") == int(expected)

    def test_sp_comm_stays_intra_node(self):
        """When the SP group is one node, all all-to-all traffic is intra."""
        sp = 4
        q, k, v = self._qkv()
        cluster = SimCluster(sp, ranks_per_node=sp)
        ulysses_attention(cluster, list(range(sp)),
                          shard_sequence(q, sp), shard_sequence(k, sp),
                          shard_sequence(v, sp))
        assert cluster.stats.bytes[("alltoall", "inter")] == 0
        assert cluster.stats.bytes[("alltoall", "intra")] > 0

    def test_rejects_indivisible_heads(self):
        q, k, v = self._qkv(heads=3)
        cluster = SimCluster(2)
        with pytest.raises(ValueError):
            ulysses_attention(cluster, [0, 1], shard_sequence(q, 2),
                              shard_sequence(k, 2), shard_sequence(v, 2))

    def test_shard_roundtrip(self):
        x = rng.normal(size=(2, 8, 4, 6)).astype(np.float32)
        np.testing.assert_array_equal(
            np.concatenate(shard_sequence(x, 4), axis=-3), x)

    def test_shard_rejects_indivisible(self):
        with pytest.raises(ValueError):
            shard_sequence(rng.normal(size=(2, 7, 4, 6)), 2)


class TestWindowSharding:
    @pytest.fixture()
    def sharding(self):
        return WindowSharding(grid=(8, 16), window=(4, 4), wp_grid=(2, 2))

    def test_shard_unshard_roundtrip(self, sharding):
        image = rng.normal(size=(2, 8, 16, 5)).astype(np.float32)
        np.testing.assert_array_equal(
            sharding.unshard(sharding.shard(image)), image)

    def test_balanced_windows(self, sharding):
        assert sharding.windows_per_rank == 2
        for r in range(4):
            assert int((sharding.assignment == r).sum()) == 2

    def test_shards_match_window_partition(self, sharding):
        """Rank shards contain exactly the window_partition windows they
        own (same token ordering) — no data duplication, no halo."""
        image = rng.normal(size=(1, 8, 16, 3)).astype(np.float32)
        all_windows = window_partition(Tensor(image), (4, 4)).numpy()
        shards = sharding.shard(image)
        for rank in range(4):
            # A rank's windows, row-major over the window grid.
            for n, (i, j) in enumerate(
                    np.argwhere(sharding.assignment == rank)):
                wid = i * sharding.n_win_w + j
                np.testing.assert_array_equal(shards[rank][:, n],
                                              all_windows[:, wid])

    def test_parallel_apply_equals_serial(self, sharding):
        """WP-sharded window attention == unsharded window attention."""
        image = rng.normal(size=(2, 8, 16, 8)).astype(np.float32)
        w = rng.normal(size=(8, 8)).astype(np.float32) * 0.3
        attention_fn = toy_window_attention(w)
        parallel = sharding.parallel_apply(image, attention_fn)
        serial = sharding.unshard(
            [attention_fn(s) for s in sharding.shard(image)])
        np.testing.assert_allclose(parallel, serial, rtol=1e-6)
        # And against a no-WP reference: partition all windows at once.
        full_stack = window_partition(Tensor(image), (4, 4)).numpy()
        ref_windows = attention_fn(full_stack)
        from repro.model import window_merge
        ref = window_merge(Tensor(ref_windows), (8, 16), (4, 4)).numpy()
        np.testing.assert_allclose(parallel, ref, rtol=1e-5, atol=1e-6)

    def test_shifted_apply_equals_shifted_serial(self, sharding):
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)

        def double(stack):
            return stack * 2.0

        out = sharding.parallel_apply(image, double, shifted=True)
        np.testing.assert_allclose(out, image * 2.0, rtol=1e-6)

    def test_shift_exchange_metered(self, sharding):
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)
        cluster = SimCluster(4)
        sharding.parallel_apply(image, lambda s: s, cluster=cluster,
                                shifted=True)
        assert cluster.stats.total_bytes("p2p") > 0

    def test_a_cluster_meters(self, sharding):
        """A shifted pass handed a cluster books its exchange — shift out
        and back, 3/4 of the pixels each (the parent booked 0 B unless a
        ``wp_group`` it never read came along)."""
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)
        cluster = SimCluster(4)
        sharding.parallel_apply(image, lambda s: s, cluster, shifted=True)
        assert dict(cluster.stats.bytes) == {("p2p", "inter"): 3072}
        assert dict(cluster.stats.ops) == {("p2p", "inter"): 2}

    def test_unshifted_apply_needs_no_comm(self, sharding):
        """The WP headline: unshifted window attention is communication-free
        (no halo exchange)."""
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)
        cluster = SimCluster(4)
        sharding.parallel_apply(image, lambda s: s, cluster=cluster,
                                shifted=False)
        assert cluster.stats.total_bytes() == 0

    def test_owner_change_fraction(self, sharding):
        """With a 2x2 WP grid and round-robin, every pixel's window changes
        owner under the half-window shift unless it stays in its window-
        relative quadrant mapping — the moved fraction must be large (>50%)
        but below 100%."""
        per_pixel = 4
        moved = shift_owner_change_bytes(sharding, per_pixel)
        total = 8 * 16 * per_pixel
        assert 0.5 * total < moved <= total

    @pytest.mark.parametrize("grid,window,wp_grid", [
        ((8, 16), (4, 4), (2, 2)), ((24, 48), (4, 4), (2, 2)),
        ((16, 32), (4, 8), (2, 4)), ((16, 32), (4, 4), (1, 2))])
    def test_owner_change_is_the_parents(self, grid, window, wp_grid):
        """Round-robin and blocked, read off the plan rows, against the
        parent's own owner grids."""
        nh, nw = grid[0] // window[0], grid[1] // window[1]
        for assignment in (None, blocked_assignment(nh, nw, wp_grid)):
            sharding = WindowSharding(grid, window, wp_grid, assignment)
            assert shift_owner_change_bytes(sharding, 4) \
                == parent_shift_owner_change_bytes(sharding, 4)

    def test_memoized_sharding_is_read_only(self):
        """The cached instance is every caller's (the autotuner reads
        ``windows_per_rank`` off it): its owner tables cannot be written."""
        sharding = window_sharding((8, 16), (4, 4), (2, 2))
        with pytest.raises(ValueError, match="read-only"):
            sharding.assignment[0, 0] = 3
        with pytest.raises(ValueError, match="read-only"):
            sharding.owned[0][0] = 3
        assert window_sharding((8, 16), (4, 4), (2, 2)).assignment[0, 0] == 0

    def test_rejects_bad_wp_grid(self):
        with pytest.raises(ValueError):
            WindowSharding(grid=(8, 16), window=(4, 4), wp_grid=(3, 1))
