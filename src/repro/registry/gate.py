"""Skill-gated promotion: candidate vs incumbent, within tolerance.

The gate is the registry's first line of defense: a candidate version
only becomes ``servable`` if its scorecard is *no worse than the
incumbent's* on the gated metrics, CRPS and RMSE (both lower-is-better),
within a relative tolerance.  A candidate with no incumbent to beat
(first registration) passes by definition — there is nothing live to
degrade.

Gating is *offline* evidence; the canary controller
(:mod:`repro.serve.deploy`) is the online check.  A candidate must clear
both: the gate catches regressions measurable on the held-out window,
the canary catches what only shows up under live traffic (deployment
skew, corrupted weight loads, guardrail violations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.profile import count, record_event
from .store import ModelRegistry, RegistryError

__all__ = ["GateConfig", "GateDecision", "evaluate_gate", "gate_version"]

#: The scorecard aggregates a candidate must not regress (lower is better).
GATED_METRICS = ("crps", "rmse")


@dataclass(frozen=True)
class GateConfig:
    """How much slack the gate allows."""

    #: Candidate may exceed the incumbent by at most this fraction.
    rel_tolerance: float = 0.02


@dataclass
class GateDecision:
    """Outcome of one candidate-vs-incumbent comparison."""

    passed: bool
    candidate: str
    incumbent: str | None
    comparisons: list = field(default_factory=list)
    reasons: list = field(default_factory=list)


def _aggregate(scorecard: dict, metric: str) -> float | None:
    value = scorecard.get("summary", {}).get(metric)
    return None if value is None else float(value)


def evaluate_gate(candidate_card: dict, incumbent_card: dict | None,
                  config: GateConfig = GateConfig(), *,
                  candidate: str = "candidate",
                  incumbent: str | None = None) -> GateDecision:
    """Pure comparison of two scorecards (no registry side effects)."""
    decision = GateDecision(passed=True, candidate=candidate,
                            incumbent=incumbent)
    if incumbent_card is None:
        decision.reasons.append("no incumbent: candidate passes by default")
        return decision
    for metric in GATED_METRICS:
        cand = _aggregate(candidate_card, metric)
        inc = _aggregate(incumbent_card, metric)
        if cand is None or inc is None:
            decision.passed = False
            decision.reasons.append(
                f"{metric}: missing from "
                f"{'candidate' if cand is None else 'incumbent'} scorecard")
            continue
        bound = inc * (1.0 + config.rel_tolerance)
        ok = cand <= bound
        decision.comparisons.append(
            {"metric": metric, "candidate": cand, "incumbent": inc,
             "bound": bound, "ok": ok})
        if not ok:
            decision.passed = False
            decision.reasons.append(
                f"{metric}: {cand:.4f} exceeds incumbent "
                f"{inc:.4f} (+{config.rel_tolerance:.0%} bound "
                f"{bound:.4f})")
    return decision


def gate_version(registry: ModelRegistry, candidate: str,
                 config: GateConfig = GateConfig()) -> GateDecision:
    """Gate a registered candidate against the registry's current
    ``live`` version and apply the resulting transition.

    ``registered`` → ``servable`` on pass, ``registered`` → ``rejected``
    on fail; the decision is booked as ``registry.gate_decisions`` and a
    ``registry.gate`` event either way.
    """
    record = registry.get(candidate)
    if record.scorecard is None:
        raise RegistryError(
            f"candidate {candidate!r} has no scorecard; attach one "
            "before gating")
    incumbent = registry.live()
    incumbent_card = None
    if incumbent is not None:
        incumbent_card = registry.get(incumbent).scorecard
        if incumbent_card is None:
            raise RegistryError(
                f"incumbent {incumbent!r} has no scorecard to gate "
                "against")
    decision = evaluate_gate(record.scorecard, incumbent_card, config,
                             candidate=candidate, incumbent=incumbent)
    count("registry.gate_decisions", "promotion-gate outcomes", 1,
          outcome="pass" if decision.passed else "fail")
    record_event("registry.gate", subsystem="registry",
                 severity="info" if decision.passed else "warning",
                 version=candidate, incumbent=incumbent or "",
                 passed=decision.passed,
                 reasons="; ".join(decision.reasons))
    reason = "; ".join(decision.reasons) or "gate passed"
    registry.set_status(candidate,
                        "servable" if decision.passed else "rejected",
                        reason=reason)
    return decision
