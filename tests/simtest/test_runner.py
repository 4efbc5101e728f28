"""End-to-end scenario execution: determinism, per-workload coverage,
and bit-exact repro replay."""

import dataclasses
import json
import os

import pytest

from repro.simtest import (InvariantRegistry, RunResult, Scenario,
                           ScenarioGen, SimRunner, TrainParams, Violation,
                           load_repro, violations_fingerprint, write_repro)

from .test_invariants import registry_of

GEN = ScenarioGen()


def _first(workload, predicate=lambda sc: True, limit=400):
    for seed in range(limit):
        sc = GEN.scenario(seed)
        if sc.workload == workload and predicate(sc):
            return sc
    raise AssertionError(f"no {workload} scenario in {limit} seeds")


class TestDeterminism:
    def test_same_scenario_same_fingerprint(self, sim_runner):
        sc = _first("serve", lambda s: s.events)
        a = sim_runner.run(sc)
        b = sim_runner.run(sc)
        assert a.outcome == b.outcome
        assert [v.to_dict() for v in a.violations] == \
            [v.to_dict() for v in b.violations]
        assert a.fingerprint() == b.fingerprint()

    def test_fresh_runner_agrees(self, sim_runner, sim_world):
        """A second runner instance (same world) reproduces the run —
        nothing leaks through hidden per-runner state."""
        sc = _first("guarded_train")
        a = sim_runner.run(sc)
        b = SimRunner(world=sim_world).run(sc)
        assert a.fingerprint() == b.fingerprint()


class TestWorkloads:
    def test_train_with_failstop_recovers(self, sim_runner):
        sc = _first("train", Scenario.has_failstop)
        result = sim_runner.run(sc)
        assert result.outcome in ("completed", "cluster_failure")
        assert not result.violations, result.violations

    def test_train_transient_twin_is_bit_exact(self, sim_runner):
        sc = _first("train", lambda s: s.has_transients()
                    and not s.has_failstop())
        result = sim_runner.run(sc)
        assert result.outcome == "completed"
        assert not result.violations, result.violations

    def test_serve_with_forecast_poison_heals(self, sim_runner):
        sc = _first("serve", lambda s: any(
            e["kind"] == "compute" for e in s.events))
        result = sim_runner.run(sc)
        assert result.outcome == "completed"
        assert not result.violations, result.violations

    # The poisoned candidate's 1e30 weights overflow its own forward
    # (``kernels/fused.py``: the GEMM, then softmax's max-subtract and exp).
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in matmul:RuntimeWarning",
        "ignore:invalid value encountered in subtract:RuntimeWarning",
        "ignore:overflow encountered in exp:RuntimeWarning")
    def test_serve_deploy_with_poisoned_candidate(self, sim_runner):
        sc = _first("serve_deploy", lambda s: s.deploy.poison_candidate)
        result = sim_runner.run(sc)
        assert result.outcome == "completed"
        assert not result.violations, result.violations

    def test_guarded_train_with_compute_faults(self, sim_runner):
        sc = _first("guarded_train", lambda s: s.events)
        result = sim_runner.run(sc)
        assert result.outcome in ("completed", "compute_escalation")
        assert not result.violations, result.violations


class TestInvariantsCatchSeededBugs:
    """Invariants must actually fire when the run misbehaves — checked by
    judging doctored artifacts, not by hoping for organic failures."""

    def test_missing_final_checkpoint_flagged(self):
        reg = InvariantRegistry.default()
        sc = Scenario(seed=0, workload="train",
                      train=TrainParams(n_steps=3, save_every=1))
        out = reg.evaluate(sc, {"outcome": "completed",
                                "checkpoint_dirs": ["step-00000001"]})
        assert any(v.invariant == "train.checkpoint_monotonic"
                   for v in out)

    def test_nonmonotonic_checkpoints_flagged(self):
        reg = registry_of(*[inv for inv in
                            InvariantRegistry.default().invariants
                            if inv.name == "train.checkpoint_monotonic"])
        sc = Scenario(seed=0, workload="train",
                      train=TrainParams(n_steps=3, save_every=1))
        out = reg.evaluate(sc, {
            "outcome": "completed",
            "checkpoint_dirs": ["step-00000002", "step-00000001",
                                "step-00000003"]})
        assert any("increasing" in v.message for v in out)


class TestReproFiles:
    def test_write_load_replay_round_trip(self, sim_runner, tmp_path):
        sc = _first("serve")
        result = sim_runner.run(sc)
        path = str(tmp_path / "repro.json")
        write_repro(path, result, note="round trip")
        repro = load_repro(path)
        assert repro["schema"] == sc.schema
        rerun, expected, match = sim_runner.replay(repro)
        assert match
        assert rerun.fingerprint() == repro["fingerprint"]

    def test_replay_detects_drift(self, sim_runner, tmp_path):
        """A repro whose recorded violations no longer match must be
        reported as a mismatch, not silently accepted."""
        sc = _first("guarded_train", lambda s: not s.events
                    and not s.rate["p_compute"])
        result = sim_runner.run(sc)
        assert not result.violations
        doctored = dataclasses.replace(
            result, violations=[Violation.of("made.up", "never fired")])
        path = str(tmp_path / "drift.json")
        write_repro(path, doctored)
        _, _, match = sim_runner.replay(load_repro(path))
        assert not match

    def test_fingerprint_is_pure_function_of_violations(self):
        a = [Violation.of("x", "m", k=1)]
        b = [Violation.of("x", "m", k=1)]
        assert violations_fingerprint(a) == violations_fingerprint(b)
        assert violations_fingerprint(a) != violations_fingerprint([])

    def test_repro_json_has_no_host_state(self, sim_runner, tmp_path):
        sc = _first("train", lambda s: not s.events)
        path = str(tmp_path / "r.json")
        write_repro(path, sim_runner.run(sc))
        text = json.dumps(load_repro(path))
        for leak in ("/tmp", "time", "hostname"):
            assert leak not in text

    def test_failed_rename_leaves_the_previous_repro(self, tmp_path,
                                                     monkeypatch):
        """A run killed between the write and the rename must not tear
        the file CI uploads (or a corpus entry being replaced)."""
        path = str(tmp_path / "repro.json")
        write_repro(path, RunResult(GEN.scenario(0), "ok"), note="first")
        before = open(path).read()

        def killed(src, dst):
            raise OSError("killed mid-rename")
        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            write_repro(path, RunResult(GEN.scenario(1), "ok"), note="second")
        assert open(path).read() == before
        assert os.listdir(tmp_path) == ["repro.json"]  # no temp file left

    @pytest.mark.parametrize("damage", ["truncated", "empty", "schema"])
    def test_unreadable_repro_is_a_value_error_naming_the_path(
            self, tmp_path, damage):
        path = str(tmp_path / f"{damage}.json")
        payload = write_repro(path, RunResult(GEN.scenario(0), "ok"))
        text = {"truncated": open(path).read()[:40], "empty": "{}",
                "schema": json.dumps({**payload, "schema": 99})}[damage]
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=f"{damage}.json"):
            load_repro(path)

    def test_cli_replay_reports_a_torn_file_and_goes_on(
            self, sim_runner, tmp_path, monkeypatch, capsys):
        tools = os.path.join(os.path.dirname(__file__), "..", "..", "tools")
        monkeypatch.syspath_prepend(os.path.abspath(tools))
        import simtest_cli
        monkeypatch.setattr(simtest_cli, "_runner", lambda: sim_runner)
        result = sim_runner.run(_first("train", lambda s: not s.events))
        write_repro(str(tmp_path / "b_good.json"), result)
        (tmp_path / "a_torn.json").write_text('{"scenario": {"se')
        assert simtest_cli.main(["replay", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "a_torn.json: UNREADABLE" in out and "b_good.json: ok" in out
        assert "2 repro(s): 1 mismatching or unreadable" in out


class TestExplore:
    def test_explore_runs_contiguous_seed_range(self, sim_runner):
        results = sim_runner.explore(2, seed_start=1)
        assert [r.scenario.seed for r in results] == [1, 2]

    def test_time_budget_stops_early(self, sim_runner):
        results = sim_runner.explore(50, time_budget_s=0.0)
        assert results == []
