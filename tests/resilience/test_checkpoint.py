"""Sharded-checkpoint integrity: manifest checksums, corruption
detection, atomic directory replacement, and ordering."""

import gc
import json
import os
import warnings

import numpy as np
import pytest

from repro.model import TINY, Aeris
from repro.nn import ConstantLR
from repro.train import (
    CheckpointCorruption,
    CheckpointError,
    list_checkpoints,
    prune_checkpoints,
    TrainingEngine,
    read_sharded_checkpoint,
    write_sharded_checkpoint,
)
from repro.train.checkpoint import MANIFEST_NAME, inspect_sharded_checkpoint
from repro.train.trainer import ONE_RANK


def _shards():
    rng = np.random.default_rng(0)
    return {
        "model": {"w": rng.normal(size=(3, 4)).astype(np.float32),
                  "b": rng.normal(size=4).astype(np.float32)},
        "opt": {"step_count": np.asarray(7)},
    }


def truncate(path: str) -> None:
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])


def resource_warnings(fn):
    """``fn()`` and the ``ResourceWarning`` s (files left open) it left,
    once the garbage is collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = fn()
        gc.collect()
    return result, [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)]


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

    def test_a_truncated_shard_is_a_problem_and_leaks_no_handle(
            self, tmp_path):
        where = str(tmp_path / "ck")
        write_sharded_checkpoint(where, _shards())
        truncate(os.path.join(where, "model.npz"))
        (shards, _, problems), leaked = resource_warnings(
            lambda: inspect_sharded_checkpoint(where))
        assert [p[:2] for p in problems] == [("model.npz", "-")]
        assert "shard unreadable" in problems[0][2]
        assert set(shards) == {"opt"} and leaked == []

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


def _engine(seed=0):
    """A one-rank training engine with an EMA whose weights, moments,
    shadow, step count and image count all come from ``seed``."""
    engine = TrainingEngine(Aeris(TINY, seed=seed), ONE_RANK,
                            schedule=ConstantLR(1e-2), weight_decay=0.0,
                            ema_halflife=100.0, seed=seed,
                            noise_offsets=(1, 2), injector=None)
    rng = np.random.default_rng(seed)
    opt = engine.optimizer
    for array in (*opt.exp_avg, *opt.exp_avg_sq,
                  *engine.ema.shadow.values()):
        array[...] = rng.normal(size=array.shape)
    opt.step_count, engine.images_seen = 3 + seed, 4.0 + seed
    return engine


class TestHighLevelTrainingCheckpoint:
    def test_full_roundtrip(self, tmp_path):
        engine = _engine()
        where = write_sharded_checkpoint(str(tmp_path / "ck"),
                                         *engine.state_payload())
        engine2 = _engine(seed=1)
        engine2.restore(*read_sharded_checkpoint(where), where=where)
        assert engine2.images_seen == 4.0
        assert engine2.optimizer.step_count == 3
        for (name, p), p2 in zip(engine.model.named_parameters(),
                                 engine2.model.parameters()):
            np.testing.assert_array_equal(p2.data, p.data, err_msg=name)
        for got, want in zip(
                engine2.optimizer.exp_avg + engine2.optimizer.exp_avg_sq,
                engine.optimizer.exp_avg + engine.optimizer.exp_avg_sq):
            np.testing.assert_array_equal(got, want)
        for name in engine.ema.shadow:
            np.testing.assert_array_equal(engine2.ema.shadow[name],
                                          engine.ema.shadow[name])

    def test_model_only_checkpoint_gives_clear_error(self, tmp_path):
        shards, extra = _engine().state_payload()
        for section, match in (("opt", "no optimizer state"),
                               ("ema", "no ema/")):
            where = write_sharded_checkpoint(
                str(tmp_path / section),
                {k: v for k, v in shards.items() if k != section}, extra)
            with pytest.raises(CheckpointError, match=match) as info:
                _engine().restore(*read_sharded_checkpoint(where),
                                  where=where)
            assert where in str(info.value)
