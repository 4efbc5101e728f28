"""SWiPe layout autotuner: determinism, feasibility, calibration margin,
snapshot roundtrip + drift detection, and stack wiring (Trainer
``plan="auto"``, supervisor end-to-end with ``autotune_check``)."""

import json

import numpy as np
import pytest

from repro.model import Aeris, TINY
from repro.obs import TraceReport, observed
from repro.parallel.autotune import (
    CONFIGS,
    NoFeasibleLayout,
    TunedPlan,
    autotune_check,
    calibrated_step_s,
    enumerate_candidates,
    frontier_table,
    load_plan,
    plan_digest,
    plan_for,
    resolve_plan,
    save_plan,
    verify_plan,
)
from repro.perf import AURORA, LUMI, MemoryModel
from repro.train import Trainer, TrainerConfig

WORLD, GBS = 32, 8
MB = (1, 2)


@pytest.fixture(scope="module")
def plan():
    return plan_for(TINY, AURORA, WORLD, GBS, micro_batches=MB)


class TestEnumeration:
    def test_feasible_candidates_fit_the_budget(self, plan):
        feasible, pruned, counts = enumerate_candidates(
            TINY, AURORA, WORLD, GBS, micro_batches=MB)
        assert feasible
        for c in feasible:
            assert c.world_size <= WORLD
            assert GBS % (c.dp * c.micro_batch) == 0
            assert TINY.heads % c.sp == 0
            mem = MemoryModel(TINY, c.topology)
            assert mem.fits(c.micro_batch, AURORA.tile_memory_gb,
                            checkpointing=c.checkpointing)

    def test_pruned_records_are_sound(self, plan):
        # Every recorded example must actually violate its stated reason.
        feasible, pruned, counts = enumerate_candidates(
            TINY, AURORA, WORLD, GBS, micro_batches=MB)
        assert sum(counts.values()) >= len(pruned)
        for rec in pruned:
            if rec["reason"] == "sequence":
                tokens = TINY.window[0] * TINY.window[1]
                assert TINY.heads % rec["sp"] or tokens % rec["sp"]
            elif rec["reason"] == "batch":
                assert GBS % (rec["dp"] * rec["micro_batch"])

    def test_no_feasible_layout_raises(self):
        with pytest.raises(NoFeasibleLayout):
            plan_for(TINY, AURORA, WORLD, 7, micro_batches=(4,))

    def test_monolithic_mode_pins_pp_to_one(self):
        mono = plan_for(TINY, AURORA, 1, 2, pipeline=False,
                        micro_batches=(2,))
        assert mono.chosen.pp == 1
        assert mono.chosen.gas == 1


class TestDeterminism:
    def test_same_inputs_same_plan(self, plan):
        again = plan_for(TINY, AURORA, WORLD, GBS, micro_batches=MB)
        assert again.digest == plan.digest
        assert again.chosen.layout_key == plan.chosen.layout_key
        assert ([c.layout_key for c in again.frontier]
                == [c.layout_key for c in plan.frontier])
        assert again.to_json() == plan.to_json()

    def test_calibration_never_changes_the_artifact(self, plan):
        measured = plan_for(TINY, AURORA, WORLD, GBS, micro_batches=MB,
                            measured_flops_per_s=1e12)
        assert measured.digest == plan.digest
        assert measured.chosen.layout_key == plan.chosen.layout_key
        d = measured.to_dict()
        d["calibration"] = {}
        assert json.dumps(d) == json.dumps(plan.to_dict())

    def test_digest_tracks_every_planning_input(self):
        base = plan_digest(TINY, AURORA, WORLD, GBS, micro_batches=MB)
        assert plan_digest(TINY, AURORA, WORLD, GBS + 8,
                           micro_batches=MB) != base
        assert plan_digest(TINY, LUMI, WORLD, GBS,
                           micro_batches=MB) != base
        assert plan_digest(CONFIGS["small"], AURORA, WORLD, GBS,
                           micro_batches=MB) != base


class TestChosen:
    def test_chosen_is_the_best_prediction(self, plan):
        assert plan.chosen.predicted_step_s == min(
            c.predicted_step_s for c in plan.frontier)
        assert plan.chosen.predicted_step_s <= plan.worst.predicted_step_s

    def test_chosen_beats_worst_by_a_measured_margin(self, plan):
        # Acceptance: calibrated at one sustained FLOP rate, the chosen
        # layout's measured step time undercuts the worst survivor's.
        rate = 1e12
        chosen = calibrated_step_s(TINY, AURORA, plan.chosen, rate)
        worst = calibrated_step_s(TINY, AURORA, plan.worst, rate)
        assert chosen < worst

    def test_frontier_table_renders(self, plan):
        table = frontier_table(plan)
        assert plan.chosen.layout_key in table
        assert "worst" in table


class TestSnapshots:
    def test_save_load_verify_roundtrip(self, plan, tmp_path):
        path = save_plan(plan, str(tmp_path))
        loaded = load_plan(path)
        assert loaded.to_json() == plan.to_json()
        assert verify_plan(loaded) == []

    def test_perturbed_snapshot_drifts(self, plan, tmp_path):
        # The CI gate: flip the chosen layout in the snapshot and the
        # re-derivation must report drift.
        path = save_plan(plan, str(tmp_path))
        payload = json.loads(open(path).read())
        payload["chosen"] = payload["frontier"][1]
        perturbed = TunedPlan.from_dict(payload)
        drifts = verify_plan(perturbed)
        assert any("chosen layout drifted" in d for d in drifts)

    def test_stale_digest_drifts(self, plan):
        stale = TunedPlan.from_dict(plan.to_dict())
        stale.digest = "0" * 64
        drifts = verify_plan(stale)
        assert any("stale digest" in d for d in drifts)


class TestResolvePlan:
    def test_auto_derives(self):
        p = resolve_plan("auto", TINY, AURORA, WORLD, GBS,
                         micro_batches=MB)
        assert p.chosen.world_size <= WORLD

    def test_mismatched_plan_rejected(self, plan):
        with pytest.raises(ValueError, match="does not apply"):
            resolve_plan(plan, TINY, AURORA, WORLD, GBS + 8)
        with pytest.raises(ValueError, match="does not apply"):
            resolve_plan(plan, CONFIGS["small"], AURORA, WORLD, GBS)

    def test_bogus_plan_argument_rejected(self):
        with pytest.raises(ValueError):
            resolve_plan("fastest", TINY, AURORA, WORLD, GBS)
        with pytest.raises(TypeError):
            resolve_plan(42, TINY, AURORA, WORLD, GBS)


class TestTrainerWiring:
    def test_trainer_plan_auto(self, tiny_archive):
        model = Aeris(TINY, seed=0)
        with observed() as (tracer, registry):
            trainer = Trainer(model, tiny_archive,
                              TrainerConfig(batch_size=2, seed=0),
                              plan="auto")
            assert trainer.plan is not None
            assert trainer.plan.chosen.pp == 1
            trainer.train_step()
            assert registry.gauge("autotune.predicted_step_s").value() > 0
            assert registry.gauge("autotune.observed_step_s").value() > 0

    def test_trainer_plan_is_bit_exact_with_unplanned(self, tiny_archive):
        # The plan only books telemetry; numerics must be untouched.
        a = Trainer(Aeris(TINY, seed=0), tiny_archive,
                    TrainerConfig(batch_size=2, seed=0))
        b = Trainer(Aeris(TINY, seed=0), tiny_archive,
                    TrainerConfig(batch_size=2, seed=0), plan="auto")
        for _ in range(2):
            la = a.train_step()
            lb = b.train_step()
            assert la == lb

    def test_trainer_rejects_foreign_plan(self, tiny_archive, tmp_path):
        foreign = plan_for(TINY, AURORA, 1, 4, pipeline=False,
                           micro_batches=(4,))
        with pytest.raises(ValueError, match="does not apply"):
            Trainer(Aeris(TINY, seed=0), tiny_archive,
                    TrainerConfig(batch_size=2, seed=0), plan=foreign)


class TestAutotuneCheck:
    def test_passes_on_a_sound_plan(self, plan):
        with observed() as (tracer, registry):
            report = TraceReport(tracer=tracer, registry=registry)
            result = report.run(autotune_check, plan,
                                topology=plan.chosen_topology)
        assert result["agrees"]
        assert result["chosen_feasible"]
        assert result["pruned_violations"] == []
        assert result["topology_matches"] is True

    def test_detects_a_diverged_topology(self, plan):
        other = plan.frontier[1].topology
        with observed() as (tracer, registry):
            report = TraceReport(tracer=tracer, registry=registry)
            result = report.run(autotune_check, plan, topology=other)
        assert result["topology_matches"] is False
        assert not result["agrees"]

    def test_detects_an_unsound_prune(self, plan):
        # Claim a feasible layout was pruned for memory: the recheck
        # must flag it.
        doctored = TunedPlan.from_dict(plan.to_dict())
        c = plan.chosen
        doctored.pruned = list(doctored.pruned) + [{
            "reason": "memory", "detail": "doctored", "dp": c.dp,
            "pp": c.pp, "wp_grid": list(c.wp_grid), "sp": c.sp,
            "micro_batch": c.micro_batch}]
        with observed() as (tracer, registry):
            report = TraceReport(tracer=tracer, registry=registry)
            result = report.run(autotune_check, doctored)
        assert result["pruned_violations"]
        assert not result["agrees"]
