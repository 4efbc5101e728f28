"""Checkpoint scrubbing: CRC verification of retained generations,
N-replica retention, newest-valid fallback selection, telemetry, and the
operational CLI."""

import json
import os
import sys

import numpy as np
import pytest

import repro.obs as obs
from repro.resilience import scrub_checkpoint, scrub_checkpoints
from repro.train import (newest_valid_checkpoint, prune_checkpoints,
                         write_sharded_checkpoint)

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tools")
sys.path.insert(0, TOOLS_DIR)

import scrub_checkpoints as scrub_cli  # noqa: E402


def _write_generation(root, step, seed):
    rng = np.random.default_rng(seed)
    return write_sharded_checkpoint(
        str(root / f"step-{step:08d}"),
        {"model": {"w": rng.normal(size=(8, 8)).astype(np.float32)},
         "optimizer": {"m": rng.normal(size=(8,)).astype(np.float32)}},
        extra={"step": step})


def _rot_shard(directory, fname="model.npz"):
    """Flip one byte mid-file — at-rest corruption after a clean save."""
    path = os.path.join(directory, fname)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(raw))


@pytest.fixture
def generations(tmp_path):
    return [_write_generation(tmp_path, step, seed)
            for seed, step in enumerate((2, 4, 6))]


class TestScrub:
    def test_clean_generations_verify(self, tmp_path, generations):
        reports = scrub_checkpoints(str(tmp_path))
        assert [r.directory for r in reports] == generations  # oldest first
        assert all(r.ok for r in reports)
        assert all(r.n_arrays == 2 and r.nbytes > 0 for r in reports)
        assert "OK" in reports[0].render()

    def test_rot_is_found_and_localized(self, tmp_path, generations):
        _rot_shard(generations[-1])
        reports = scrub_checkpoints(str(tmp_path))
        assert [r.ok for r in reports] == [True, True, False]
        bad = reports[-1]
        assert bad.findings and bad.findings[0].shard == "model.npz"
        assert "CORRUPT" in bad.render()

    def test_one_rotten_generation_never_hides_the_others(self, tmp_path,
                                                          generations):
        """Unlike read_sharded_checkpoint, the scrubber collects findings
        instead of fail-stopping on the first."""
        _rot_shard(generations[0])
        _rot_shard(generations[0], "optimizer.npz")
        report = scrub_checkpoint(generations[0])
        assert not report.ok and len(report.findings) == 2
        assert scrub_checkpoint(generations[1]).ok

    def test_missing_manifest_is_a_finding(self, tmp_path, generations):
        os.remove(os.path.join(generations[0], "manifest.json"))
        report = scrub_checkpoint(generations[0])
        assert not report.ok
        assert "manifest unreadable" in report.findings[0].reason

    def test_scrub_books_telemetry(self, tmp_path, generations):
        _rot_shard(generations[-1])
        obs.enable()
        obs.enable_health()
        try:
            scrub_checkpoints(str(tmp_path))
            registry = obs.metrics()
            assert registry.counter(
                "resilience.checkpoints_scrubbed").total() == 3
            assert registry.counter(
                "resilience.scrub_corruptions").total() >= 1
            assert obs.flight().events(kind="checkpoint.scrub_corrupt",
                                       min_severity="critical")
        finally:
            obs.disable()


def _cli_latest(root, capsys, *args):
    """The scrub CLI's ``latest_valid`` for ``root``."""
    scrub_cli.main(["--root", str(root), "--json", *args])
    return json.loads(capsys.readouterr().out)["latest_valid"]


class TestLatestValid:
    """The CLI names the generation the resume walk
    (:func:`newest_valid_checkpoint`) restores."""

    def test_skips_rotten_newest(self, tmp_path, generations, capsys):
        assert _cli_latest(tmp_path, capsys) == generations[-1]
        assert newest_valid_checkpoint(str(tmp_path))[0] == generations[-1]
        _rot_shard(generations[-1])
        assert _cli_latest(tmp_path, capsys) == generations[-2]
        assert newest_valid_checkpoint(str(tmp_path))[0] == generations[-2]

    @pytest.mark.parametrize("content", ['{"format": 1, "sha', "{}"],
                             ids=["truncated", "empty-object"])
    def test_rotten_manifest_scrub_and_resume_agree(self, tmp_path,
                                                    generations, content,
                                                    capsys):
        """The scrubber and the resume walk read one definition of a
        rotten generation, so they cannot disagree about a manifest."""
        with open(os.path.join(generations[-1], "manifest.json"), "w") as fh:
            fh.write(content)
        report = scrub_checkpoint(generations[-1])
        assert not report.ok
        assert "manifest unreadable" in report.findings[0].reason
        assert scrub_cli.main(["--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] == 1
        assert payload["latest_valid"] == generations[-2]
        assert payload["latest_valid"] == \
            newest_valid_checkpoint(str(tmp_path))[0]
        assert [r["ok"] for r in payload["reports"]] == [True, True, False]

    def test_none_when_everything_is_rotten(self, tmp_path, generations,
                                            capsys):
        for directory in generations:
            _rot_shard(directory)
        assert _cli_latest(tmp_path, capsys) is None
        assert newest_valid_checkpoint(str(tmp_path))[0] is None

    def test_pruned_generation_is_never_latest(self, tmp_path, generations,
                                               capsys):
        """``--keep 1`` keeps only the rotten newest: the valid ones the
        scrub saw are gone, so nothing is left to resume from."""
        _rot_shard(generations[-1])
        assert _cli_latest(tmp_path, capsys, "--keep", "1") is None
        assert newest_valid_checkpoint(str(tmp_path))[0] is None
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(generations[-1])]


class TestRetention:
    def test_prune_keeps_newest_n(self, tmp_path, generations):
        removed = prune_checkpoints(str(tmp_path), keep=2)
        assert removed == [generations[0]]
        assert not os.path.isdir(generations[0])
        assert os.path.isdir(generations[1])
        assert prune_checkpoints(str(tmp_path), keep=2) == []

    def test_keep_must_be_positive(self, tmp_path, generations):
        with pytest.raises(ValueError, match="keep"):
            prune_checkpoints(str(tmp_path), keep=0)


class TestScrubCli:
    def test_clean_exit_zero(self, tmp_path, generations, capsys):
        assert scrub_cli.main(["--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 3

    def test_corrupt_exit_nonzero_names_fallback(self, tmp_path,
                                                 generations, capsys):
        _rot_shard(generations[-1])
        assert scrub_cli.main(["--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.out
        assert generations[-2] in captured.err  # the fallback target

    def test_json_report(self, tmp_path, generations, capsys):
        _rot_shard(generations[-1])
        assert scrub_cli.main(["--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["generations"] == 3 and payload["corrupt"] == 1
        assert payload["latest_valid"] == generations[-2]
        assert not payload["reports"][-1]["ok"]

    def test_keep_applies_retention_after_scrub(self, tmp_path,
                                                generations, capsys):
        assert scrub_cli.main(["--root", str(tmp_path), "--keep", "1"]) == 0
        assert "pruned" in capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(generations[-1])]
