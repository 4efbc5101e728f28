"""Sharded-checkpoint integrity: manifest checksums, corruption
detection, atomic directory replacement, and ordering."""

import json
import os

import numpy as np
import pytest

from repro.nn import EMA, AdamW, Linear
from repro.train import (
    CheckpointCorruption,
    CheckpointError,
    list_checkpoints,
    prune_checkpoints,
    read_sharded_checkpoint,
    write_sharded_checkpoint,
)
from repro.train.checkpoint import (MANIFEST_NAME, restore_training_shards,
                                    training_shards)


def _shards():
    rng = np.random.default_rng(0)
    return {
        "model": {"w": rng.normal(size=(3, 4)).astype(np.float32),
                  "b": rng.normal(size=4).astype(np.float32)},
        "opt": {"step_count": np.asarray(7)},
    }


class TestShardedRoundtrip:
    def test_arrays_and_extra_roundtrip(self, tmp_path):
        where = str(tmp_path / "ck")
        extra = {"step": 7, "history": [1.0, 0.5]}
        write_sharded_checkpoint(where, _shards(), extra=extra)
        shards, got_extra = read_sharded_checkpoint(where)
        assert got_extra == extra
        np.testing.assert_array_equal(shards["model"]["w"],
                                      _shards()["model"]["w"])
        assert int(shards["opt"]["step_count"]) == 7

    def test_manifest_carries_per_array_checksums(self, tmp_path):
        where = str(tmp_path / "ck")
        write_sharded_checkpoint(where, _shards())
        with open(os.path.join(where, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        assert set(manifest["shards"]) == {"model.npz", "opt.npz"}
        assert set(manifest["shards"]["model.npz"]["arrays"]) == {"w", "b"}

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        where = str(tmp_path / "ck")
        write_sharded_checkpoint(where, _shards())
        write_sharded_checkpoint(where, {"model": {"w": np.zeros(2)}})
        shards, _ = read_sharded_checkpoint(where)
        assert set(shards) == {"model"}
        # No staging leftovers beside the final directory.
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []

    def test_failed_overwrite_keeps_the_old_generation(self, tmp_path,
                                                       monkeypatch):
        """The rename that publishes a re-saved generation fails: the
        generation it was replacing still reads back and verifies."""
        root = str(tmp_path)
        where = os.path.join(root, "step-00000001")
        write_sharded_checkpoint(where, _shards(), extra={"step": 1})
        real_replace = os.replace

        def replace(src, dst):
            if src == f"{where}.tmp.{os.getpid()}":  # the publishing rename
                raise OSError("injected rename failure")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            write_sharded_checkpoint(where, {"model": {"w": np.zeros(2)}})
        monkeypatch.undo()
        assert list_checkpoints(root) == [where]
        shards, extra = read_sharded_checkpoint(where)
        assert extra == {"step": 1}
        np.testing.assert_array_equal(shards["model"]["w"],
                                      _shards()["model"]["w"])
        assert os.listdir(root) == ["step-00000001"]


class TestCorruptionDetection:
    def test_flipped_byte_raises(self, tmp_path):
        where = str(tmp_path / "ck")
        write_sharded_checkpoint(where, _shards())
        shard = os.path.join(where, "model.npz")
        raw = bytearray(open(shard, "rb").read())
        raw[-20] ^= 0xFF
        open(shard, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruption):
            read_sharded_checkpoint(where)

    def test_replaced_array_raises(self, tmp_path):
        where = str(tmp_path / "ck")
        write_sharded_checkpoint(where, _shards())
        shard = os.path.join(where, "model.npz")
        tampered = dict(_shards()["model"])
        tampered["w"] = tampered["w"] + 1e-3
        with open(shard, "wb") as fh:
            np.savez(fh, **tampered)
        with pytest.raises(CheckpointCorruption):
            read_sharded_checkpoint(where)

    def test_missing_directory_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_sharded_checkpoint(str(tmp_path / "nope"))


class TestListCheckpoints:
    def test_sorted_and_filtered(self, tmp_path):
        root = str(tmp_path)
        for step in (3, 1, 2):
            write_sharded_checkpoint(
                os.path.join(root, f"step-{step:08d}"), _shards())
        os.makedirs(os.path.join(root, "not-a-checkpoint"))
        # a crashed save's staging directory (it has a manifest) is not a
        # generation, and retention must not count it against ``keep``
        write_sharded_checkpoint(
            os.path.join(root, "step-00000002.tmp.4242"), _shards())
        found = list_checkpoints(root)
        assert [os.path.basename(p) for p in found] == [
            "step-00000001", "step-00000002", "step-00000003"]
        prune_checkpoints(root, keep=2)
        assert [os.path.basename(p) for p in list_checkpoints(root)] == [
            "step-00000002", "step-00000003"]

    def test_missing_root_is_empty(self, tmp_path):
        assert list_checkpoints(str(tmp_path / "absent")) == []


class TestHighLevelTrainingCheckpoint:
    def _training_trio(self, seed=0):
        model = Linear(6, 5, rng=np.random.default_rng(seed))
        opt = AdamW(model.parameters(), lr=1e-2)
        ema = EMA(model, halflife_images=100.0)
        return model, opt, ema

    def test_full_roundtrip(self, tmp_path):
        model, opt, ema = self._training_trio()
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        ema.update(model, images_per_step=4)
        where = write_sharded_checkpoint(
            str(tmp_path / "ck"),
            training_shards(model, opt, ema, images_seen=4.0))
        model2, opt2, ema2 = self._training_trio(seed=1)
        images = restore_training_shards(read_sharded_checkpoint(where)[0],
                                         where, model2, opt2, ema2)
        assert images == 4.0
        np.testing.assert_array_equal(model2.weight.data, model.weight.data)
        assert opt2.step_count == opt.step_count
        np.testing.assert_array_equal(opt2.exp_avg[0], opt.exp_avg[0])
        for name in ema.shadow:
            np.testing.assert_array_equal(ema2.shadow[name],
                                          ema.shadow[name])

    def test_model_only_checkpoint_gives_clear_error(self, tmp_path):
        model, opt, ema = self._training_trio()
        where = write_sharded_checkpoint(str(tmp_path / "ck"),
                                         training_shards(model))
        shards, _ = read_sharded_checkpoint(where)
        model2, opt2, ema2 = self._training_trio()
        with pytest.raises(CheckpointError, match="optimizer"):
            restore_training_shards(shards, where, model2, opt2)
        with pytest.raises(CheckpointError, match="EMA"):
            restore_training_shards(shards, where, model2, ema=ema2)
        # Model-only load still works.
        restore_training_shards(shards, where, model2)
