"""SWiPe layout autotuner: determinism, feasibility, calibration margin,
snapshot roundtrip + drift detection (a run on the chosen layout, end to
end, is in ``tests/resilience/test_supervisor.py``).

``golden_plan_numbers.json`` was recorded from the commit *before* the
step-time composition moved into :func:`repro.perf.step_terms`
(``golden_record`` below, run against that commit's ``src``): every leaf
of both committed snapshots' plans and of three monolithic plans, each
calibrated at 3.0e9 FLOP/s.  Regenerate it only for an intended change to
the cost model, from the parent commit's ``src``.
"""

import dataclasses
import json
import os

import pytest

from repro.model import TINY, count_parameters
from repro.parallel.autotune import (
    CONFIGS,
    NoFeasibleLayout,
    TunedPlan,
    _leaves,
    calibrated_step_s,
    enumerate_candidates,
    load_plan,
    plan_digest,
    plan_for,
    verify_plan,
)
from repro.perf import AURORA, LUMI, MemoryModel

WORLD, GBS = 32, 8
MB = (1, 2)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_plan_numbers.json")
SNAPSHOTS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks", "results", "plans")
RATE = 3.0e9
#: the inputs of the two snapshots under ``benchmarks/results/plans``
PIPELINED = {"tiny_Aurora_w32_g8": (TINY, WORLD, GBS),
             "1.3B_Aurora_w1152_g120": (CONFIGS["1.3B"], 1152, 120)}
MONO_BATCHES = (2, 4, 8)


def golden_record() -> dict:
    record = {name: plan_for(config, AURORA, world, gbs, micro_batches=MB,
                             measured_flops_per_s=RATE).to_dict()
              for name, (config, world, gbs) in PIPELINED.items()}
    for b in MONO_BATCHES:
        record[f"mono_b{b}"] = plan_for(
            TINY, AURORA, 1, b, pipeline=False,
            measured_flops_per_s=RATE).to_dict()
    for d in record.values():
        d.pop("digest")          # the address of the inputs, not a number
        d.pop("code", None)      # the parent's source hash
    return record


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

    def test_calibration_replays_the_named_schedule(self, plan):
        """At PP 4 / GAS 4 a zero-bubble replay (the backward split evenly
        into B and W) finishes before 1F1B's; an unknown name raises."""
        candidate = dataclasses.replace(plan.chosen, pp=4, gas=4)
        one_f_one_b = calibrated_step_s(TINY, AURORA, candidate, RATE)
        assert calibrated_step_s(TINY, AURORA, candidate, RATE,
                                 "zero-bubble") < one_f_one_b
        with pytest.raises(ValueError, match="unknown schedule"):
            calibrated_step_s(TINY, AURORA, candidate, RATE, "interleaved")

class TestSnapshots:
    def test_perturbed_snapshot_drifts(self, plan):
        # The CI gate: flip the chosen layout in the snapshot and the
        # re-derivation must report drift.
        payload = json.loads(plan.to_json())
        payload["chosen"] = payload["frontier"][1]
        perturbed = TunedPlan.from_dict(payload)
        drifts = verify_plan(perturbed)
        assert any(d.startswith("chosen.layout:") for d in drifts)

    def test_stale_digest_drifts(self, plan):
        stale = TunedPlan.from_dict(plan.to_dict())
        stale.digest = "0" * 64
        drifts = verify_plan(stale)
        assert any("stale digest" in d for d in drifts)

    def test_snapshot_with_the_old_code_key_loads(self, plan, tmp_path):
        # schema-1 files written while plans hashed their sources
        payload = dict(plan.to_dict(), code="0" * 64)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert verify_plan(load_plan(str(path))) == []

    def test_cost_model_change_drifts(self, monkeypatch):
        # The oracle is live: the committed snapshot against a planner
        # whose optimizer constant moved.
        snapshot = load_plan(os.path.join(SNAPSHOTS,
                                          "tiny_Aurora_w32_g8.json"))
        assert verify_plan(snapshot) == []
        monkeypatch.setattr("repro.perf.scaling.OPT_SECONDS_PER_GPARAM", 1.2)
        drifts = verify_plan(snapshot)
        assert any(d.startswith("chosen.predicted_step_s:") for d in drifts)
        assert not any("digest" in d for d in drifts)

    @pytest.mark.parametrize("path, edit", [
        ("worst.predicted_step_s",
         lambda d: d["worst"].update(
             predicted_step_s=d["worst"]["predicted_step_s"] * 1.001)),
        ("pruned_counts.ranks",
         lambda d: d["pruned_counts"].update(
             ranks=d["pruned_counts"]["ranks"] + 1)),
        ("frontier[2].memory_gb",
         lambda d: d["frontier"][2].update(
             memory_gb=d["frontier"][2]["memory_gb"] + 0.5)),
        # an unsound prune: the chosen (feasible) layout recorded as
        # pruned for memory
        ("pruned[32]",
         lambda d: d["pruned"].append({
             "reason": "memory", "detail": "doctored",
             **{k: d["chosen"][k]
                for k in ("dp", "pp", "wp_grid", "sp", "micro_batch")}})),
    ])
    def test_every_leaf_is_checked(self, plan, path, edit):
        # The oracle is whole: any leaf, named by its JSON path (a doctored
        # record, by every leaf under its path).
        payload = json.loads(plan.to_json())
        edit(payload)
        drifts = verify_plan(TunedPlan.from_dict(payload))
        paths = [d.split(":")[0] for d in drifts]
        assert paths and all(p == path or p.startswith(path + ".")
                             for p in paths)


class TestOneCostModel:
    """The step-time composition exists once, in ``repro.perf.scaling``."""

    def test_golden_numbers_reproduce(self):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        fresh = json.loads(json.dumps(golden_record()))
        for name in PIPELINED:
            assert fresh[name] == golden[name]
        for b in MONO_BATCHES:
            old = dict(_leaves(golden[f"mono_b{b}"]))
            new = dict(_leaves(fresh[f"mono_b{b}"]))
            assert new.keys() == old.keys()
            for path, want in old.items():
                if path.endswith(".mfu"):
                    # MFU is over whole nodes, as Table III's is; the
                    # golden's was over ranks
                    sp = old[path[:-len("mfu")] + "sp"]
                    want *= sp / AURORA.tiles_per_node
                if isinstance(want, float):
                    assert new[path] == pytest.approx(want, rel=1e-12), path
                else:
                    assert new[path] == want, path

    def test_one_constant_three_consumers(self, monkeypatch):
        def numbers():
            piped = plan_for(TINY, AURORA, WORLD, GBS, micro_batches=MB)
            mono = plan_for(TINY, AURORA, 1, 2, pipeline=False,
                            micro_batches=(2,))
            assert not (piped.chosen.checkpointing
                        or mono.chosen.checkpointing)
            return (piped.chosen.predicted_step_s,
                    mono.chosen.predicted_step_s,
                    calibrated_step_s(TINY, AURORA, piped.chosen, RATE))

        before = numbers()
        delta = 0.1
        monkeypatch.setattr("repro.perf.scaling.OPT_SECONDS_PER_GPARAM",
                            1.1 + delta)
        after = numbers()
        params = count_parameters(TINY)
        for got, base, pp in zip(after, before,
                                 (TINY.pp_stages, 1, TINY.pp_stages)):
            assert got - base == pytest.approx(delta * params / pp / 1e9,
                                               rel=1e-6)

