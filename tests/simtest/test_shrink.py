"""Delta-debugging shrinker: a synthetic injected bug must reduce to a
minimal scenario that still trips the same invariant."""

import pytest

from repro.simtest import (Invariant, Scenario, SimRunner, TrainParams,
                           Violation, shrink)

from .test_invariants import registry_of

#: A "bug" with a known trigger: any injected straggler fault fails.
#: Everything else in the scenario (flips, drops, extra steps) is noise
#: the shrinker must strip away.
def _straggler_bug(scenario, artifacts):
    if artifacts["injector"].injected.get("straggler", 0) > 0:
        return [Violation.of("synthetic.straggler_bug",
                             "a straggler fault was injected")]
    return []


SYNTHETIC = registry_of(
    Invariant("synthetic.straggler_bug", _straggler_bug,
              outcomes=("completed",)))

NOISY = Scenario(
    seed=99, workload="train",
    events=(
        {"kind": "bitflip", "step": 0, "primitive": "*", "nth": 0},
        {"kind": "straggle", "step": 0, "primitive": "*", "nth": 1,
         "delay_s": 0.02},
        {"kind": "drop", "step": 1, "primitive": "allreduce", "nth": 0},
        {"kind": "straggle", "step": 1, "primitive": "p2p", "nth": 0,
         "delay_s": 0.03},
        {"kind": "bitflip", "step": 1, "primitive": "p2p", "nth": 1},
        {"kind": "drop", "step": 0, "primitive": "*", "nth": 2},
    ),
    fault_seed=7,
    train=TrainParams(n_steps=2, dp=2, gas=1, save_every=0,
                      max_restarts=1, seed=0))


@pytest.fixture(scope="module")
def bug_runner(request):
    world = request.getfixturevalue("sim_world")
    return SimRunner(registry=SYNTHETIC, world=world)


class TestShrink:
    def test_synthetic_bug_shrinks_to_minimal_repro(self, bug_runner):
        original = bug_runner.run(NOISY)
        assert original.violation_names() == {"synthetic.straggler_bug"}
        reduction = shrink(NOISY, original.violation_names(),
                           bug_runner.run, max_evals=60,
                           initial_result=original)
        # the acceptance bar: <= 2 fault events, still failing the same
        # invariant
        assert len(reduction.scenario.events) <= 2
        assert all(e["kind"] == "straggle"
                   for e in reduction.scenario.events)
        assert reduction.result.violation_names() == {
            "synthetic.straggler_bug"}
        assert reduction.steps, "no reductions recorded"
        assert reduction.evals <= 60

    def test_shrunk_scenario_replays(self, bug_runner):
        original = bug_runner.run(NOISY)
        reduction = shrink(NOISY, original.violation_names(),
                           bug_runner.run, max_evals=60,
                           initial_result=original)
        again = bug_runner.run(reduction.scenario)
        assert again.fingerprint() == reduction.result.fingerprint()

    def test_passing_scenario_refused(self, bug_runner):
        clean = Scenario(seed=1, workload="train",
                         train=TrainParams(n_steps=2, gas=1,
                                           save_every=0))
        with pytest.raises(ValueError, match="does not fail"):
            shrink(clean, {"synthetic.straggler_bug"}, bug_runner.run)

    def test_eval_budget_respected(self, bug_runner):
        original = bug_runner.run(NOISY)
        reduction = shrink(NOISY, original.violation_names(),
                           bug_runner.run, max_evals=3,
                           initial_result=original)
        assert reduction.evals <= 3
        # even under a tiny budget the result still fails
        assert reduction.result.violation_names() == {
            "synthetic.straggler_bug"}
