"""Promotion gate: scorecards, tolerance bounds, and status transitions."""

import numpy as np
import pytest

from repro.registry import (GateConfig, RegistryError, build_scorecard,
                            evaluate_gate, gate_version)
from repro.registry.gate import GATED_METRICS
from tests.registry.test_store import register


def card(crps=1.0, rmse=1.0, **extra):
    summary = {"crps": crps, "rmse": rmse, **extra}
    return {"summary": {k: v for k, v in summary.items() if v is not None},
            "cells": {}}


class TestEvaluateGate:
    def test_no_incumbent_passes_by_default(self):
        decision = evaluate_gate(card(), None)
        assert decision.passed
        assert "no incumbent" in decision.reasons[0]

    def test_better_or_within_tolerance_passes(self):
        config = GateConfig(rel_tolerance=0.02)
        assert evaluate_gate(card(0.9, 0.9), card(1.0, 1.0), config).passed
        assert evaluate_gate(card(1.019, 1.0), card(1.0, 1.0),
                             config).passed

    def test_worse_beyond_tolerance_fails_with_reason(self):
        decision = evaluate_gate(card(1.2, 1.0), card(1.0, 1.0),
                                 GateConfig(rel_tolerance=0.02))
        assert not decision.passed
        assert any("crps" in r for r in decision.reasons)
        # The rmse comparison still ran and passed.
        by_metric = {c["metric"]: c["ok"] for c in decision.comparisons}
        assert by_metric == {"crps": False, "rmse": True}

    def test_missing_aggregate_fails(self):
        decision = evaluate_gate(card(crps=None), card())
        assert not decision.passed and "missing" in decision.reasons[0]

    def test_ssr_bound(self):
        """The spread/skill ratio is on the scorecard but bounds nothing:
        only :data:`GATED_METRICS` are compared."""
        assert GATED_METRICS == ("crps", "rmse")
        decision = evaluate_gate(card(ssr=0.1), card(ssr=1.0))
        assert decision.passed
        assert [c["metric"] for c in decision.comparisons] == ["crps", "rmse"]


class TestGateVersion:
    def register_with_card(self, registry, trainer, version, **card_kwargs):
        register(registry, trainer, version=version,
                 scorecard=card(**card_kwargs))

    def test_first_candidate_passes_and_becomes_servable(self, registry,
                                                         reg_world):
        _, trainer = reg_world
        self.register_with_card(registry, trainer, "a")
        decision = gate_version(registry, "a")
        assert decision.passed and decision.incumbent is None
        assert registry.get("a").status == "servable"

    def test_regressed_candidate_is_rejected(self, registry, reg_world):
        _, trainer = reg_world
        self.register_with_card(registry, trainer, "a", crps=1.0, rmse=1.0)
        registry.set_status("a", "servable")
        registry.set_status("a", "live")
        self.register_with_card(registry, trainer, "b", crps=2.0, rmse=1.0)
        decision = gate_version(registry, "b")  # incumbent defaults to live
        assert not decision.passed and decision.incumbent == "a"
        record = registry.get("b")
        assert record.status == "rejected"
        assert "crps" in record.history[-1]["reason"]

    def test_gate_requires_scorecards(self, registry, reg_world):
        _, trainer = reg_world
        register(registry, trainer, version="bare")
        with pytest.raises(RegistryError, match="no scorecard"):
            gate_version(registry, "bare")


class TestBuildScorecard:
    def test_scorecard_from_eval_harness(self, registry, reg_world):
        archive, trainer = reg_world
        scorecard = build_scorecard(trainer.forecaster(), archive)
        assert set(scorecard["cells"]) == {"Z500/d1", "T2M/d1"}
        for metric in ("rmse", "crps", "ssr"):
            assert np.isfinite(scorecard["summary"][metric])
        # The card survives the registry's JSON round trip unchanged.
        record = register(registry, trainer, version="scored",
                          scorecard=scorecard)
        import json
        assert json.loads(json.dumps(record.scorecard)) == scorecard
