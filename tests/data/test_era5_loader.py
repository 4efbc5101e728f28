"""Tests for the synthetic reanalysis archive, normalization, and the
WP-sharded window loader."""

import numpy as np
import pytest

from repro.data import FieldNormalizer, ShardedWindowLoader, TOY_SET
from repro.data.forcings import STEPS_PER_YEAR
from repro.parallel.window_parallel import (
    round_robin_assignment,
    window_sharding,
)


class TestNormalizer:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 3.0, size=(100, 4, 4, 6)).astype(np.float32)
        norm = FieldNormalizer.from_data(data)
        z = norm.normalize(data)
        np.testing.assert_allclose(z.mean(axis=(0, 1, 2)), 0.0, atol=1e-4)
        np.testing.assert_allclose(z.std(axis=(0, 1, 2)), 1.0, rtol=1e-3)
        np.testing.assert_allclose(norm.denormalize(z), data, rtol=1e-3,
                                   atol=1e-3)

    def test_rejects_bad_std(self):
        with pytest.raises(ValueError):
            FieldNormalizer(mean=np.zeros(2, np.float32),
                            std=np.array([1.0, 0.0], np.float32))


class TestArchive:
    def test_shapes(self, tiny_archive):
        assert tiny_archive.fields.ndim == 4
        assert tiny_archive.fields.shape[1:] == (16, 32, len(TOY_SET))
        assert len(tiny_archive) == tiny_archive.config.n_steps
        assert np.isfinite(tiny_archive.fields).all()

    def test_splits_partition_time(self, tiny_archive):
        splits = tiny_archive.splits
        assert splits["train"][0] == 0
        assert splits["train"][1] == splits["val"][0]
        assert splits["val"][1] == splits["test"][0]
        assert splits["test"][1] == len(tiny_archive)
        assert splits["train"][1] == int(0.5 * STEPS_PER_YEAR)

    def test_split_indices_keep_pairs_internal(self, tiny_archive):
        for split in ("train", "val", "test"):
            idx = tiny_archive.split_indices(split)
            lo, hi = tiny_archive.splits[split]
            assert idx.min() >= lo and idx.max() + 1 < hi + 1
            assert idx.max() + 1 <= hi - 0  # x_{i+1} stays inside

    def test_normalizers_standardize_training_data(self, tiny_archive,
                                                   tiny_norms):
        lo, hi = tiny_archive.splits["train"]
        z = tiny_norms["state"].normalize(tiny_archive.fields[lo:hi])
        np.testing.assert_allclose(z.mean(axis=(0, 1, 2)), 0.0, atol=1e-3)
        np.testing.assert_allclose(z.std(axis=(0, 1, 2)), 1.0, rtol=1e-2)

    def test_residual_normalizer_differs_from_state(self, tiny_archive,
                                                    tiny_norms):
        # Residual std is much smaller than state std for every channel.
        assert np.all(tiny_norms["residual"].std < tiny_norms["state"].std)

    def test_training_batch_standardized(self, tiny_archive, tiny_norms):
        idx = np.array([5, 20, 40])
        cond, resid, forc = tiny_archive.training_batch(
            idx, tiny_norms["state"], tiny_norms["residual"],
            tiny_norms["forcing"])
        assert cond.shape == (3, 16, 32, len(TOY_SET))
        assert resid.shape == cond.shape
        assert forc.shape == (3, 16, 32, 3)
        # The standardized residual should be O(1).
        assert 0.05 < np.abs(resid).mean() < 5.0

    def test_internal_state_matches_archive(self, tiny_archive):
        """Replaying from a checkpoint reproduces the archived fields."""
        for i in (0, 7, 16, 33):
            state = tiny_archive.internal_state_at(i)
            np.testing.assert_allclose(tiny_archive.gcm.diagnostics(state),
                                       tiny_archive.fields[i], atol=1e-5)

    def test_internal_state_rejects_negative_index(self, tiny_archive):
        with pytest.raises(IndexError, match="0 <= i"):
            tiny_archive.internal_state_at(-1)

    def test_internal_state_replays_past_the_end(self, tiny_archive):
        """The numerical baseline forecasts from late analysis times: an
        index past the archive replays on from the last checkpoint."""
        n = len(tiny_archive)
        state = tiny_archive.internal_state_at(n + 3)
        ahead = tiny_archive.internal_state_at(n - 1)
        for _ in range(4):
            tiny_archive.gcm.step(ahead)
        assert state.step == tiny_archive.gcm_step(n + 3) == ahead.step
        np.testing.assert_array_equal(state.q, ahead.q)

    def test_daily_climatology_shape(self, tiny_archive):
        clim = tiny_archive.daily_climatology()
        assert clim.shape == (365, 16, 32, len(TOY_SET))
        at = tiny_archive.climatology_at(clim, 3)
        assert at.shape == (16, 32, len(TOY_SET))


class TestRoundRobin:
    def test_balanced_assignment(self):
        a = round_robin_assignment(4, 8, (2, 2))
        ids, counts = np.unique(a, return_counts=True)
        assert list(ids) == [0, 1, 2, 3]
        assert np.all(counts == 8)

    def test_round_robin_pattern(self):
        a = round_robin_assignment(4, 4, (2, 2))
        # Window (i, j) -> (i mod 2) * 2 + (j mod 2).
        assert a[0, 0] == 0 and a[0, 1] == 1
        assert a[1, 0] == 2 and a[1, 1] == 3
        assert a[2, 2] == 0  # wraps in both directions

    def test_neighbors_in_different_ranks(self):
        """Round-robin guarantees adjacent windows live on different ranks —
        the property that batches shifted-window exchange."""
        a = round_robin_assignment(6, 6, (3, 3))
        assert np.all(a[:, :-1] != a[:, 1:])
        assert np.all(a[:-1, :] != a[1:, :])


def reassemble(loader: ShardedWindowLoader, shards) -> np.ndarray:
    """Rebuild the full image from all ranks' shards through the
    attention's unshard: the oracle for "the shards cover the image
    exactly"."""
    return loader.sharding.unshard(
        [s.reshape(1, len(s), -1, loader.channels) for s in shards])[0]


class TestShardedLoader:
    @pytest.fixture()
    def loader(self, tiny_archive):
        return ShardedWindowLoader(tiny_archive.fields, window=(4, 4),
                                   wp_grid=(2, 2))

    def test_shards_cover_image_exactly(self, loader, tiny_archive):
        shards = [loader.load(5, rank) for rank in range(4)]
        full = reassemble(loader, shards)
        np.testing.assert_array_equal(full, tiny_archive.fields[5])

    def test_each_rank_reads_one_over_wp(self, loader):
        loader.bytes_read[:] = 0
        for rank in range(4):
            loader.load(3, rank)
        total = loader.load_full(3).nbytes
        np.testing.assert_array_equal(loader.bytes_read, total // 4)

    def test_rank_window_counts_equal(self, loader):
        counts = [len(loader.load(0, r)) for r in range(4)]
        assert counts == [loader.sharding.windows_per_rank] * 4

    @pytest.mark.parametrize("wp_grid", [(1, 1), (2, 2), (2, 4), (4, 2)])
    def test_memmap_load_is_the_attention_shard(self, tiny_archive,
                                                tmp_path, wp_grid):
        """A rank loads exactly the windows the attention's sharding
        hands it, so nothing moves between loading and attention; each
        rank reads 1/WP of the image."""
        path = str(tmp_path / "fields.npy")
        np.save(path, tiny_archive.fields[:3])
        loader = ShardedWindowLoader(np.load(path, mmap_mode="r"),
                                     window=(4, 4), wp_grid=wp_grid)
        want = window_sharding((16, 32), (4, 4), wp_grid).shard(
            tiny_archive.fields[2:3])
        wp = wp_grid[0] * wp_grid[1]
        for rank in range(wp):
            got = loader.load(2, rank)
            assert got.dtype == np.float32 and got.shape[1:] == (4, 4, len(TOY_SET))
            np.testing.assert_array_equal(
                got.reshape(want[rank].shape[1:]), want[rank][0])
        np.testing.assert_array_equal(loader.bytes_read,
                                      loader.load_full(2).nbytes // wp)

    def test_rejects_indivisible_wp_grid(self, tiny_archive):
        with pytest.raises(ValueError):
            ShardedWindowLoader(tiny_archive.fields, window=(4, 4),
                                wp_grid=(3, 2))
