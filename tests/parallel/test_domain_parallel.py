"""Tests for the domain-parallel (halo exchange) comparator."""

import numpy as np
import pytest

from repro.parallel import DomainSharding, SimCluster, WindowSharding
from repro.parallel.domain_parallel import blocked_assignment

from .reference_sharding import parent_apply_windowed, toy_window_attention

rng = np.random.default_rng(0)


@pytest.fixture()
def sharding():
    return DomainSharding(grid=(8, 16), window=(4, 4), tile_grid=(2, 2))


class TestSharding:
    def test_shard_unshard_roundtrip(self, sharding):
        """The 2 x 2 tiles, laid back side by side, are the image."""
        image = rng.normal(size=(2, 8, 16, 5)).astype(np.float32)
        tiles = sharding.shard(image)
        np.testing.assert_array_equal(np.concatenate(
            [np.concatenate(tiles[r * 2:r * 2 + 2], axis=2)
             for r in range(2)], axis=1), image)

    def test_tiles_are_contiguous(self, sharding):
        image = np.arange(8 * 16, dtype=np.float32).reshape(1, 8, 16, 1)
        shards = sharding.shard(image)
        # Tile 0 is the north-west block.
        np.testing.assert_array_equal(shards[0][0, :, :, 0],
                                      image[0, :4, :8, 0])

    def test_rejects_misaligned_tiles(self):
        with pytest.raises(ValueError):
            DomainSharding(grid=(8, 16), window=(4, 4), tile_grid=(3, 2))


class TestFunctionalEquivalence:
    def test_unshifted_equals_unsharded(self, sharding):
        image = rng.normal(size=(1, 8, 16, 8)).astype(np.float32)
        w = rng.normal(size=(8, 8)).astype(np.float32) * 0.3
        fn = toy_window_attention(w)
        out = sharding.apply_windowed(image, fn, shifted=False)
        # Reference: WindowSharding with WP=1 (trivially unsharded).
        ref_shard = WindowSharding((8, 16), (4, 4), (1, 1))
        ref = ref_shard.parallel_apply(image, fn)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_shifted_equals_unsharded(self, sharding):
        image = rng.normal(size=(1, 8, 16, 8)).astype(np.float32)
        w = rng.normal(size=(8, 8)).astype(np.float32) * 0.3
        fn = toy_window_attention(w)
        out = sharding.apply_windowed(image, fn, shifted=True)
        ref_shard = WindowSharding((8, 16), (4, 4), (1, 1))
        ref = ref_shard.parallel_apply(image, fn, shifted=True)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_is_a_blocked_window_sharding(self, sharding, shifted):
        """Equal arrays: to WP over the blocked owner table, and to the
        parent's roll + tile-slice + reshape body."""
        image = rng.normal(size=(2, 8, 16, 8)).astype(np.float32)
        fn = toy_window_attention(
            rng.normal(size=(8, 6)).astype(np.float32) * 0.3)
        out = sharding.apply_windowed(image, fn, shifted=shifted)
        blocked = WindowSharding((8, 16), (4, 4), (2, 2),
                                 blocked_assignment(2, 4, (2, 2)))
        np.testing.assert_array_equal(
            out, blocked.parallel_apply(image, fn, shifted=shifted))
        np.testing.assert_array_equal(out, parent_apply_windowed(
            (8, 16), (4, 4), (2, 2), image, fn, shifted))


class TestHaloCosts:
    def test_unshifted_pass_is_free(self, sharding):
        """Aligned tiles need no halo for unshifted windows (same as WP)."""
        cluster = SimCluster(4)
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)
        sharding.apply_windowed(image, lambda s: s, shifted=False,
                                cluster=cluster)
        assert cluster.stats.total_bytes() == 0

    def test_shifted_pass_pays_halo(self, sharding):
        cluster = SimCluster(4)
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)
        sharding.apply_windowed(image, lambda s: s, shifted=True,
                                cluster=cluster)
        assert cluster.stats.total_bytes("p2p") > 0

    def test_a_cluster_meters(self, sharding):
        """The halo in and out, with no ``group`` to forget (the parent
        booked 0 B without one)."""
        cluster = SimCluster(4)
        image = rng.normal(size=(1, 8, 16, 4)).astype(np.float32)
        sharding.apply_windowed(image, lambda s: s, True, cluster)
        assert dict(cluster.stats.bytes) == {
            ("p2p", "inter"): 2 * sharding.halo_bytes_per_exchange(1, 4)}
        assert dict(cluster.stats.ops) == {("p2p", "inter"): 2}

    def test_halo_volume_formula(self, sharding):
        b, c, itemsize = 2, 5, 4
        per_rank_strip = (2 * 8 + 2 * 4 + 2 * 2) * b * c * itemsize
        assert sharding.halo_bytes_per_exchange(b, c, itemsize) \
            == per_rank_strip * 4

    def test_resharding_points(self, sharding):
        assert sharding.resharding_points_per_block(shifted=False) == 0
        assert sharding.resharding_points_per_block(shifted=True) == 2
