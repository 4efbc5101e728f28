"""The autotune CLI: deterministic plan output, the snapshot round-trip,
and the CI drift gate failing on a perturbed snapshot."""

import json
import os
import sys

import pytest

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tools")
sys.path.insert(0, TOOLS_DIR)

import autotune_cli as cli  # noqa: E402
from repro.model import TINY  # noqa: E402
from repro.parallel.autotune import load_plan, plan_for, verify_plan  # noqa: E402,E501
from repro.perf import AURORA  # noqa: E402

SMOKE_ARGS = ["plan", "--smoke", "--no-measure"]


class TestPlanArtifacts:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_for(TINY, AURORA, 32, 8, micro_batches=(1, 2))

    def test_frontier_table_renders(self, plan):
        table = cli.frontier_table(plan)
        assert plan.chosen.layout_key in table
        assert "worst" in table

    def test_save_load_verify_roundtrip(self, plan, tmp_path):
        path = cli.save_plan(plan, str(tmp_path))
        assert os.path.basename(path) == "tiny_Aurora_w32_g8.json"
        loaded = load_plan(path)
        assert loaded.to_json() == plan.to_json()
        assert verify_plan(loaded) == []


class TestPlanCommand:
    def test_smoke_is_deterministic(self, capsys):
        assert cli.main(SMOKE_ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert cli.main(SMOKE_ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["config_name"] == "tiny"
        assert payload["chosen"]["layout"] in \
            [c["layout"] for c in payload["frontier"]]

    def test_table_shows_frontier_and_digest(self, capsys):
        assert cli.main(SMOKE_ARGS) == 0
        out = capsys.readouterr().out
        assert "TunedPlan tiny @ Aurora" in out
        assert "worst" in out
        assert "digest" in out

    def test_missing_budget_is_a_usage_error(self, capsys):
        assert cli.main(["plan", "--no-measure"]) == 2
        assert "--world and --gbs" in capsys.readouterr().err

    def test_infeasible_budget_fails_cleanly(self, capsys):
        assert cli.main(["plan", "--config", "tiny", "--machine", "aurora",
                         "--world", "32", "--gbs", "7",
                         "--micro-batches", "4", "--no-measure"]) == 1
        assert "no feasible layout" in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.fixture
    def snapshot_dir(self, tmp_path, capsys):
        plans = tmp_path / "plans"
        assert cli.main(SMOKE_ARGS + ["--out", str(plans)]) == 0
        capsys.readouterr()
        return plans

    def test_clean_snapshot_verifies(self, snapshot_dir, capsys):
        assert cli.main(["verify", "--plans", str(snapshot_dir)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "1 snapshot(s) clean" in out

    def test_tables_written_as_artifacts(self, snapshot_dir, tmp_path,
                                         capsys):
        tables = tmp_path / "frontiers"
        assert cli.main(["verify", "--plans", str(snapshot_dir),
                         "--tables", str(tables)]) == 0
        written = list(tables.glob("*.txt"))
        assert len(written) == 1
        assert "TunedPlan" in written[0].read_text()

    def test_perturbed_snapshot_fails_the_gate(self, snapshot_dir, capsys):
        """Acceptance: the CI autotune job exits non-zero when a committed
        snapshot no longer matches what the planner derives."""
        path = next(snapshot_dir.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["chosen"] = payload["frontier"][1]
        path.write_text(json.dumps(payload))
        assert cli.main(["verify", "--plans", str(snapshot_dir)]) == 1
        captured = capsys.readouterr()
        assert "DRIFT" in captured.out
        assert "- chosen.layout:" in captured.out
        assert "regenerate the snapshots" in captured.err

    def test_stale_digest_fails_the_gate(self, snapshot_dir, capsys):
        path = next(snapshot_dir.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert cli.main(["verify", "--plans", str(snapshot_dir)]) == 1
        assert "stale digest" in capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", [lambda text: text[:300],
                                         lambda text: "{}"],
                             ids=["truncated", "empty-object"])
    def test_malformed_snapshot_is_one_finding(self, snapshot_dir, capsys,
                                               corrupt):
        """A snapshot that does not parse is reported by name and the
        others are still verified."""
        good = next(snapshot_dir.glob("*.json"))
        bad = snapshot_dir / "a_broken.json"
        bad.write_text(corrupt(good.read_text()))
        assert cli.main(["verify", "--plans", str(snapshot_dir)]) == 1
        captured = capsys.readouterr()
        assert f"unreadable plan snapshot {bad}" in captured.out
        assert f"OK  {good.name}" in captured.out
        assert "1 drift finding(s)" in captured.err

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert cli.main(["verify", "--plans", str(tmp_path)]) == 1
        assert "no plan snapshots" in capsys.readouterr().err


class TestCommittedSnapshots:
    def test_repo_snapshots_are_clean(self, capsys):
        """The committed plans under benchmarks/results/plans must verify
        against the current cost model — the same gate CI runs."""
        assert cli.main(["verify"]) == 0
        assert "clean" in capsys.readouterr().out
