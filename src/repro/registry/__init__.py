"""Model lifecycle registry: content-addressed versions, skill gating.

Closes the train → eval → serve loop.  The pieces:

* :mod:`~repro.registry.store` — immutable versioned artifacts (weights,
  config, normalizer stats) under SHA-256 content digests, a lineage
  manifest per version, and a crash-safe atomic JSON index;
* :mod:`~repro.registry.scorecard` — eval-harness adapter producing the
  JSON skill record attached at registration;
* :mod:`~repro.registry.gate` — the promotion gate: a candidate becomes
  ``servable`` only if no worse than the incumbent within tolerance.

The online half — canary rollout, shadow comparison, auto-promote /
auto-rollback — lives in :mod:`repro.serve.deploy`, driving versions
registered here through ``servable → canary → live`` (or back).
"""

from .gate import GateConfig, GateDecision, evaluate_gate, gate_version
from .scorecard import build_scorecard, scores_to_scorecard
from .store import (STATUSES, TRANSITIONS, ModelRegistry, ModelVersion,
                    RegistryError)

__all__ = [
    "ModelRegistry", "ModelVersion", "RegistryError",
    "STATUSES", "TRANSITIONS",
    "build_scorecard", "scores_to_scorecard",
    "GateConfig", "GateDecision", "evaluate_gate", "gate_version",
]
