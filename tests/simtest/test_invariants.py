"""Violation serialization, registry gating, and crash containment."""

import numpy as np
import pytest

from repro.simtest import (Invariant, InvariantRegistry, Scenario,
                           TrainParams, Violation)
from repro.simtest.invariants import sanitize

TRAIN = Scenario(seed=0, workload="train", train=TrainParams())


def registry_of(*invariants):
    """An :class:`InvariantRegistry` holding ``invariants``, in order."""
    reg = InvariantRegistry()
    for inv in invariants:
        reg.register(inv)
    return reg
SERVE_DICT = {"seed": 1, "workload": "serve", "events": [],
              "fault_seed": 0,
              "rates": {"p_bitflip": 0, "p_drop": 0, "p_straggle": 0,
                        "p_compute": 0},
              "train": None,
              "serve": {"n_workers": 1, "n_requests": 3, "rate_hz": 4.0,
                        "tier_weights": [0.25, 0.5, 0.25], "n_members": 1,
                        "lead_steps": 1, "seed": 0},
              "deploy": None, "schema": 1}
SERVE = Scenario.from_dict(SERVE_DICT)


class TestSanitize:
    def test_numpy_scalars_unwrapped(self):
        assert sanitize(np.int64(3)) == 3
        assert sanitize(np.float64(2.5)) == 2.5
        assert sanitize(np.bool_(True)) in (True, 1)

    def test_integral_floats_collapse(self):
        assert sanitize(3.0) == 3 and isinstance(sanitize(3.0), int)
        assert sanitize(3.5) == 3.5

    def test_sets_sorted_dicts_stringified(self):
        assert sanitize({"b", "a"}) == ["a", "b"]
        assert sanitize({1: {"x": np.int32(2)}}) == {"1": {"x": 2}}

    def test_unknown_objects_reprd(self):
        assert isinstance(sanitize(object()), str)


class TestViolation:
    def test_round_trip(self):
        v = Violation.of("serve.request_conservation",
                         "a request vanished",
                         missing=["r0003"], counts={"total": np.int64(7)})
        again = Violation.from_dict(v.to_dict())
        assert again == v

    def test_details_sorted_and_canonical(self):
        a = Violation.of("x", "m", b=1, a=2)
        b = Violation.of("x", "m", a=2, b=1)
        assert a == b
        assert [k for k, _ in a.details] == ["a", "b"]


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = InvariantRegistry()
        reg.register(Invariant("one", lambda s, a: []))
        with pytest.raises(ValueError, match="duplicate"):
            reg.register(Invariant("one", lambda s, a: []))

    def test_workload_gating(self):
        calls = []
        reg = registry_of(
            Invariant("train_only", lambda s, a: calls.append("t") or [],
                      workloads=("train",)),
            Invariant("serve_only", lambda s, a: calls.append("s") or [],
                      workloads=("serve",)),
        )
        reg.evaluate(TRAIN, {"outcome": "completed"})
        assert calls == ["t"]

    def test_outcome_gating(self):
        reg = registry_of(
            Invariant("completed_only", lambda s, a: [Violation.of(
                "completed_only", "ran")]),
            Invariant("always", lambda s, a: [Violation.of(
                "always", "ran")], outcomes=()),
        )
        names = [v.invariant for v in reg.evaluate(
            TRAIN, {"outcome": "cluster_failure"})]
        assert names == ["always"]

    def test_crashing_invariant_becomes_violation(self):
        def boom(scenario, artifacts):
            raise KeyError("artifact the runner never produced")
        reg = registry_of(Invariant("fragile", boom))
        out = reg.evaluate(TRAIN, {"outcome": "completed"})
        assert len(out) == 1
        assert out[0].invariant == "fragile"
        assert "crashed" in out[0].message

    def test_violations_deterministically_sorted(self):
        reg = registry_of(
            Invariant("zeta", lambda s, a: [Violation.of("zeta", "z")]),
            Invariant("alpha", lambda s, a: [Violation.of("alpha", "a")]),
        )
        out = reg.evaluate(TRAIN, {"outcome": "completed"})
        assert [v.invariant for v in out] == ["alpha", "zeta"]

    def test_needs(self):
        reg = registry_of(Invariant("x", lambda s, a: []))
        assert reg.needs("x") and not reg.needs("y")


class TestDefaultRegistry:
    def test_catalog(self):
        names = set(InvariantRegistry.default().names())
        assert names == {
            "scenario.clean_exit",
            "resilience.faults_observed",
            "train.transient_bit_exact",
            "train.checkpoint_monotonic",
            "obs.alert_fidelity",
            "sdc.recovery_closed",
            "serve.request_conservation",
            "serve.responses_complete",
            "serve.forecast_sdc_accounting",
            "obs.no_alert_without_cause",
            "deploy.lifecycle",
        }

    def test_clean_exit_judges_crashes(self):
        reg = InvariantRegistry.default()
        out = reg.evaluate(SERVE, {"outcome": "crashed",
                                   "error": "ZeroDivisionError: boom"})
        assert any(v.invariant == "scenario.clean_exit" for v in out)

    def test_escalations_are_legitimate_outcomes(self):
        reg = InvariantRegistry.default()
        for outcome in ("cluster_failure", "compute_escalation",
                        "comm_escalation"):
            out = reg.evaluate(TRAIN, {"outcome": outcome,
                                       "checkpoint_dirs": []})
            assert not [v for v in out
                        if v.invariant == "scenario.clean_exit"]
