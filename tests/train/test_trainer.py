"""Training-loop tests: loss decreases, EMA/schedule wiring, forecaster
export, checkpoint roundtrip, end-to-end forecast sanity."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.diffusion import SolverConfig
from repro.model import Aeris, AerisConfig, ParallelLayout
from repro.train import (CheckpointError, Trainer,
                         write_sharded_checkpoint)

TINY16 = AerisConfig(
    name="tiny16", height=16, width=32, channels=9, forcing_channels=3,
    dim=32, heads=4, ffn_dim=64, swin_layers=2, blocks_per_layer=2,
    window=(4, 4), time_freqs=8,
    layout=ParallelLayout(wp=4, wp_grid=(2, 2), pp=4, sp=2, gas=2))


@pytest.fixture(scope="module")
def tiny_archive_module(request):
    return request.getfixturevalue("tiny_archive")


class TestTraining:
    def test_loss_decreases(self, trained):
        history = np.asarray(trained.history)
        early = history[:20].mean()
        late = history[-20:].mean()
        assert late < 0.92 * early, f"no learning: {early:.3f} -> {late:.3f}"

    def test_losses_finite(self, trained):
        assert np.isfinite(trained.history).all()

    def test_images_seen_tracks_batches(self, trained):
        assert trained.images_seen == 120 * 4

    def test_lr_follows_schedule(self, trained):
        # After warmup the optimizer lr should sit at the peak.
        assert trained.optimizer.lr == pytest.approx(3e-3)

    def test_model_channel_mismatch_rejected(self, tiny_archive_module):
        bad = AerisConfig(name="bad", height=16, width=32, channels=5,
                          forcing_channels=3, dim=32, heads=4, ffn_dim=64,
                          swin_layers=1, blocks_per_layer=1, window=(4, 4),
                          time_freqs=8)
        with pytest.raises(ValueError):
            Trainer(Aeris(bad), tiny_archive_module)


class TestForecasterExport:
    def test_ema_weights_used(self, trained):
        fc = trained.forecaster()
        ema_weight = trained.ema.shadow["embed.weight"]
        np.testing.assert_array_equal(fc.model.embed.weight.data, ema_weight)

    def test_forecast_step_produces_physical_state(self, trained,
                                                   tiny_archive_module):
        archive = tiny_archive_module
        fc = trained.forecaster(SolverConfig(n_steps=4))
        idx = archive.split_indices("test")[0]
        state = archive.fields[idx]
        nxt = fc.step(state, int(idx), np.random.default_rng(0))
        assert nxt.shape == state.shape
        assert np.isfinite(nxt).all()
        # The one-step change should be comparable to true residual scale.
        true_step = np.abs(archive.fields[idx + 1] - state).mean()
        pred_step = np.abs(nxt - state).mean()
        assert pred_step < 50 * (true_step + 1e-3)

    def test_ensemble_members_differ(self, trained, tiny_archive_module):
        archive = tiny_archive_module
        fc = trained.forecaster(SolverConfig(n_steps=3))
        idx = int(archive.split_indices("test")[0])
        ens = fc.ensemble_rollout(archive.fields[idx], n_steps=2,
                                  n_members=2, seed=1, start_index=idx)
        assert ens.shape[:2] == (2, 3)
        assert np.abs(ens[0, -1] - ens[1, -1]).max() > 1e-4


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, trained, tiny_archive_module):
        path = write_sharded_checkpoint(str(tmp_path / "ckpt"),
                                        *trained.state_payload())
        other = Trainer(Aeris(TINY16, seed=99), tiny_archive_module)
        assert other.load(path) == trained.images_seen
        for (n1, p1), (n2, p2) in zip(trained.model.named_parameters(),
                                      other.model.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        assert other.optimizer.step_count == trained.optimizer.step_count
        np.testing.assert_array_equal(other.optimizer.exp_avg[0],
                                      trained.optimizer.exp_avg[0])
        np.testing.assert_array_equal(other.ema.shadow["embed.weight"],
                                      trained.ema.shadow["embed.weight"])
        assert other.history == trained.history

    def test_model_only_checkpoint(self, tmp_path, trained,
                                   tiny_archive_module):
        """A generation of weights alone does not resume a run: it fails
        typed, naming the directory."""
        shards, extra = trained.state_payload()
        path = write_sharded_checkpoint(
            str(tmp_path / "model"),
            {k: shards[k] for k in ("meta", "model")}, extra)
        other = Trainer(Aeris(TINY16, seed=3), tiny_archive_module)
        with pytest.raises(CheckpointError, match="no optimizer state"):
            other.load(path)
        with pytest.raises(CheckpointError, match=re.escape(path)):
            other.load(path)


def _other_config_generation(archive, root, **changes):
    """A verified generation saved by a trainer of another config."""
    other = Trainer(Aeris(replace(TINY16, name="other", **changes)), archive)
    return other.save(os.path.join(root, "step-00000001"))


class TestCheckpointFit:
    """A generation that verifies but does not fit the model fails typed,
    naming the directory; ``fit`` rejects an autosave it cannot honour."""

    def test_load_shape_mismatch_is_typed(self, tmp_path,
                                          tiny_archive_module):
        where = _other_config_generation(tiny_archive_module, str(tmp_path),
                                         dim=16)
        trainer = Trainer(Aeris(TINY16), tiny_archive_module)
        with pytest.raises(CheckpointError, match=re.escape(where)):
            trainer.load(where)

    def test_load_name_mismatch_is_typed(self, tmp_path,
                                         tiny_archive_module):
        where = _other_config_generation(tiny_archive_module, str(tmp_path),
                                         swin_layers=1)
        trainer = Trainer(Aeris(TINY16), tiny_archive_module)
        with pytest.raises(CheckpointError, match=re.escape(where)):
            trainer.load(where)

    @pytest.mark.parametrize("section, key", [
        ("opt", "m/3"), ("opt", "v/0"), ("ema", "embed.weight")])
    def test_moment_or_shadow_shape_mismatch_is_typed(
            self, tmp_path, trained, tiny_archive_module, section, key):
        """A moment or EMA array that verifies but does not fit its live
        counterpart fails typed, naming the directory and the key."""
        shards, extra = trained.state_payload()
        shards = {sec: dict(arrays) for sec, arrays in shards.items()}
        shards[section][key] = np.zeros((3, 5, 7), dtype=np.float32)
        where = write_sharded_checkpoint(str(tmp_path / "step-00000001"),
                                         shards, extra)
        trainer = Trainer(Aeris(TINY16), tiny_archive_module)
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{section}/{key}")) as info:
            trainer.load(where)
        assert where in str(info.value)
