"""Scenario schema + seeded generation: determinism, round trips,
versioning, and the sampling invariants the runner relies on."""

import dataclasses
import json

import pytest

from repro.resilience.faults import (BitFlip, ComputeFault, Drop, FailStop,
                                     Straggle)
from repro.simtest import SCHEMA_VERSION, Scenario, ScenarioGen, TrainParams
from repro.simtest.scenario import WORKLOADS, event_from_dict

SEEDS = range(200)


class TestGeneration:
    def test_same_seed_same_scenario(self):
        a, b = ScenarioGen(), ScenarioGen()
        for seed in range(50):
            assert a.scenario(seed) == b.scenario(seed)

    def test_different_seeds_differ(self):
        gen = ScenarioGen()
        scenarios = {repr(gen.scenario(s)) for s in range(40)}
        assert len(scenarios) > 30

    def test_every_workload_sampled(self):
        gen = ScenarioGen()
        seen = {gen.scenario(s).workload for s in range(80)}
        assert seen == set(WORKLOADS)

    def test_uint64_seed_wraps(self):
        gen = ScenarioGen()
        assert gen.scenario(2**64 - 1) == gen.scenario(-1)


class TestSamplingInvariants:
    """The generator's promises (documented in the module docstring)."""

    @pytest.fixture(scope="class")
    def scenarios(self):
        gen = ScenarioGen()
        return [gen.scenario(s) for s in SEEDS]

    def test_events_inside_horizon(self, scenarios):
        for sc in scenarios:
            for ev in sc.events:
                assert 0 <= ev["step"] < sc.horizon, sc

    def test_at_most_one_failstop(self, scenarios):
        for sc in scenarios:
            n = sum(e["kind"] == "failstop" for e in sc.events)
            assert n <= 1, sc

    def test_failstop_ranks_inside_world(self, scenarios):
        for sc in scenarios:
            for ev in sc.events:
                if ev["kind"] != "failstop":
                    continue
                if sc.workload == "train":
                    assert ev["rank"] < sc.train.dp * 3
                else:
                    assert ev["rank"] < sc.serve.n_workers

    def test_compute_sites_match_workload(self, scenarios):
        for sc in scenarios:
            sites = {e["site"] for e in sc.events
                     if e["kind"] == "compute"}
            if sc.workload == "guarded_train":
                assert sites <= {"gemm", "weight", "optimizer"}
            elif sc.workload in ("serve", "serve_deploy"):
                assert sites <= {"forecast"}
            else:
                assert not sites

    def test_rates_bounded(self, scenarios):
        for sc in scenarios:
            r = sc.rate
            assert 0 <= r["p_bitflip"] <= 0.02
            assert 0 <= r["p_drop"] <= 0.02
            assert 0 <= r["p_straggle"] <= 0.03
            assert 0 <= r["p_compute"] <= 0.01

    def test_workload_sections_populated(self, scenarios):
        for sc in scenarios:
            if sc.workload in ("train", "guarded_train"):
                assert sc.train is not None and sc.serve is None
            else:
                assert sc.serve is not None and sc.train is None
            assert (sc.deploy is not None) == (
                sc.workload == "serve_deploy")
            if sc.serve is not None:
                assert abs(sum(sc.serve.tier_weights) - 1.0) < 1e-9


class TestSerialization:
    def test_round_trip_equality(self):
        gen = ScenarioGen()
        for seed in range(60):
            sc = gen.scenario(seed)
            again = Scenario.from_dict(
                json.loads(json.dumps(sc.to_dict())))
            assert again == sc, seed

    def test_unknown_schema_version_rejected(self):
        data = ScenarioGen().scenario(0).to_dict()
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            Scenario.from_dict(data)

    def test_unknown_workload_rejected(self):
        data = ScenarioGen().scenario(0).to_dict()
        data["workload"] = "mine_bitcoin"
        with pytest.raises(ValueError, match="workload"):
            Scenario.from_dict(data)

    def test_event_from_dict_covers_all_kinds(self):
        typed = [
            event_from_dict({"kind": "failstop", "rank": 1, "step": 2}),
            event_from_dict({"kind": "bitflip", "step": 0,
                             "primitive": "*", "nth": 0}),
            event_from_dict({"kind": "drop", "step": 0,
                             "primitive": "p2p", "nth": 1}),
            event_from_dict({"kind": "straggle", "step": 1,
                             "primitive": "allreduce", "nth": 0,
                             "delay_s": 0.02}),
            event_from_dict({"kind": "compute", "step": 0,
                             "site": "gemm", "nth": 0}),
        ]
        assert [type(e) for e in typed] == [FailStop, BitFlip, Drop,
                                            Straggle, ComputeFault]
        with pytest.raises(ValueError, match="kind"):
            event_from_dict({"kind": "solar_flare"})

    def test_inert_compute_site_rejected_at_construction_and_load(self):
        with pytest.raises(ValueError, match="compute-fault site 'gem'"):
            ComputeFault(site="gem")
        data = ScenarioGen().scenario(0).to_dict()
        data["events"] = [{"kind": "compute", "step": 0, "site": "gem",
                           "nth": 0}]
        with pytest.raises(ValueError, match="compute-fault site 'gem'"):
            Scenario.from_dict(data)

    def test_fault_plan_materializes(self):
        gen = ScenarioGen()
        for seed in range(40):
            sc = gen.scenario(seed)
            plan = sc.fault_plan()
            assert len(plan.events) == len(sc.events)
            assert plan.seed == sc.fault_seed
            assert plan.p_bitflip == sc.rate["p_bitflip"]


class TestDerivedViews:
    def test_with_horizon(self):
        sc = ScenarioGen().scenario(2)
        shorter = sc.with_horizon(1)
        assert shorter.horizon == 1
        assert shorter.seed == sc.seed
        assert shorter.events == sc.events

    def test_has_failstop_and_transients(self):
        base = Scenario(seed=0, workload="train", train=TrainParams())
        assert not base.has_failstop() and not base.has_transients()
        stopped = dataclasses.replace(
            base, events=({"kind": "failstop", "rank": 0, "step": 0},))
        assert stopped.has_failstop() and not stopped.has_transients()
        flipped = dataclasses.replace(
            base, events=({"kind": "bitflip", "step": 0,
                           "primitive": "*", "nth": 0},))
        assert flipped.has_transients() and not flipped.has_failstop()
        ratey = dataclasses.replace(
            base, rates=(("p_bitflip", 0.01), ("p_compute", 0.0),
                         ("p_drop", 0.0), ("p_straggle", 0.0)))
        assert ratey.has_transients()
