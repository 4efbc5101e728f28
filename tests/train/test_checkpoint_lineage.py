"""Checkpoint lineage manifests: config + digest-stamped normalizer
stats embedded by ``Trainer.save``, backward-compatible with manifests
that predate the field."""

import numpy as np

from repro import quickstart_components
from repro.model.config import config_from_dict
from repro.resilience import state_digest
from repro.train import checkpoint_lineage
from repro.train.checkpoint import (read_sharded_checkpoint,
                                    write_sharded_checkpoint)


def small_trainer():
    _, trainer = quickstart_components(height=8, width=16, train_years=0.2,
                                       test_years=0.1)
    return trainer


class TestLineageBlock:
    def test_trainer_save_embeds_lineage(self, tmp_path):
        trainer = small_trainer()
        path = trainer.save(str(tmp_path / "ckpt"))
        _, extra = read_sharded_checkpoint(path)
        lineage = extra["lineage"]
        assert config_from_dict(lineage["model_config"]) \
            == trainer.model.config
        assert lineage["seed"] == trainer.config.seed
        for name, norm in (("state", trainer.state_norm),
                           ("residual", trainer.residual_norm),
                           ("forcing", trainer.forcing_norm)):
            stats = lineage["normalizers"][name]
            assert np.allclose(stats["mean"], norm.mean)
            assert np.allclose(stats["std"], norm.std)

    def test_digests_bind_the_stats(self, tmp_path):
        """The recorded digest is over the float32 stats arrays — the
        address ``state_digest`` gives the rebuilt stats, so tampering with
        either the numbers or the digest is detectable."""
        trainer = small_trainer()
        lineage = checkpoint_lineage(trainer.model.config,
                                     trainer.state_norm,
                                     trainer.residual_norm,
                                     trainer.forcing_norm, seed=11)
        assert lineage["seed"] == 11
        from repro.data.normalize import FieldNormalizer
        for name in ("state", "residual", "forcing"):
            stats = lineage["normalizers"][name]
            rebuilt = FieldNormalizer(
                mean=np.asarray(stats["mean"], dtype=np.float32),
                std=np.asarray(stats["std"], dtype=np.float32))
            assert state_digest({"mean": rebuilt.mean,
                                 "std": rebuilt.std}) == stats["digest"]

    def test_optional_forcing_norm_omitted(self):
        trainer = small_trainer()
        lineage = checkpoint_lineage(trainer.model.config,
                                     trainer.state_norm,
                                     trainer.residual_norm, None)
        assert "forcing" not in lineage["normalizers"]
        assert set(lineage["normalizers"]) == {"state", "residual"}


class TestBackwardCompatibility:
    def test_pre_lineage_manifest_still_loads(self, tmp_path):
        """A checkpoint written without the lineage field reads back
        exactly as before — the field is additive."""
        trainer = small_trainer()
        trainer.fit(1)
        path = write_sharded_checkpoint(str(tmp_path / "old"),
                                        *trainer.state_payload())
        shards, extra = read_sharded_checkpoint(path)
        assert "lineage" not in extra
        assert extra["step"] == 1
        fresh = small_trainer()
        fresh.restore(shards, extra, where=path)
        assert fresh.history == trainer.history
        for name, array in trainer.model.state_dict().items():
            assert np.array_equal(fresh.model.state_dict()[name], array)
