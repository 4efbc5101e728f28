"""The registry CLI: list/show/gc text + JSON outputs and exit codes."""

import json
import os
import sys

import numpy as np
import pytest

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tools")
sys.path.insert(0, TOOLS_DIR)

import registry_cli  # noqa: E402

from repro.data.normalize import FieldNormalizer  # noqa: E402
from repro.model import TINY  # noqa: E402
from repro.registry import ModelRegistry  # noqa: E402
from tests.resilience.test_checkpoint import (  # noqa: E402
    resource_warnings, truncate)


@pytest.fixture
def root(tmp_path):
    """A registry with two versions: a live parent and a scored child."""
    registry = ModelRegistry(str(tmp_path / "reg"))
    norm = FieldNormalizer(mean=np.zeros(9, dtype=np.float32),
                           std=np.ones(9, dtype=np.float32))
    state = {"w": np.arange(6, dtype=np.float32)}
    registry.register_state(state, TINY, norm, norm, version="a")
    registry.set_status("a", "servable")
    registry.set_status("a", "live")
    registry.register_state({"w": np.arange(6, dtype=np.float32) + 1},
                            TINY, norm, norm, version="b", parent="a",
                            scorecard={"summary": {"crps": 0.5},
                                       "cells": {}})
    return registry.root


def run(argv, capsys):
    code = registry_cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text_lists_every_version(self, root, capsys):
        code, out, _ = run(["--root", root, "list"], capsys)
        assert code == 0
        assert "* a" in out and "live" in out  # live marker
        assert "crps=0.5" in out and "no scorecard" in out
        assert "2 version(s)" in out

    def test_json_shape(self, root, capsys):
        code, out, _ = run(["--root", root, "--json", "list"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert [v["version"] for v in payload["versions"]] == ["a", "b"]
        assert payload["stats"]["by_status"] == {"live": 1,
                                                 "registered": 1}


class TestShow:
    def test_show_renders_lineage_and_history(self, root, capsys):
        code, out, _ = run(["--root", root, "show", "b"], capsys)
        assert code == 0
        assert "lineage  b <- a" in out
        assert "artifact weights" in out

    def test_show_json(self, root, capsys):
        code, out, _ = run(["--root", root, "--json", "show", "a"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "live"
        assert [h["dst"] for h in payload["history"]] == ["servable", "live"]

    def test_unknown_version_exits_nonzero(self, root, capsys):
        code, _, err = run(["--root", root, "show", "nope"], capsys)
        assert code == 1 and "unknown version" in err


class TestGc:
    def test_gc_collects_orphans_and_verifies(self, root, capsys):
        orphan = os.path.join(root, "blobs", "f" * 64 + ".npz")
        with open(orphan, "wb") as fh:
            fh.write(b"junk")
        code, out, _ = run(["--root", root, "gc", "--dry-run"], capsys)
        assert code == 0 and "would remove 1" in out
        assert os.path.exists(orphan)
        code, out, _ = run(["--root", root, "gc"], capsys)
        assert code == 0 and "removed 1" in out
        assert not os.path.exists(orphan)

    def test_gc_flags_corrupted_blob(self, root, capsys):
        registry = ModelRegistry(root)
        digest = registry.get("a").weights_digest
        path = registry._blob_path(digest, "arrays")
        np.savez(path, w=np.zeros(6, dtype=np.float32))
        code, _, err = run(["--root", root, "gc"], capsys)
        assert code == 1 and "CORRUPT" in err

    def test_gc_of_a_truncated_blob_leaks_no_handle(self, root, capsys):
        registry = ModelRegistry(root)
        truncate(registry._blob_path(registry.get("a").weights_digest,
                                     "arrays"))
        (code, _, err), leaked = resource_warnings(
            lambda: run(["--root", root, "gc"], capsys))
        assert code == 1 and "unreadable blob" in err and leaked == []

    def test_gc_reports_truncated_blob(self, root, capsys):
        registry = ModelRegistry(root)
        path = registry._blob_path(registry.get("a").weights_digest,
                                   "arrays")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        code, _, err = run(["--root", root, "gc"], capsys)
        assert code == 1 and "CORRUPT a:weights: unreadable blob" in err
