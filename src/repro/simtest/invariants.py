"""Uniform invariant checking over simulated runs.

Every property a scenario run must satisfy is an :class:`Invariant`: a
named predicate over the run's artifacts (injector, tracer, metrics
registry, monitor, service/supervisor/controller handles, outcomes)
returning a list of :class:`Violation`\\ s.  The default registry runs
the :class:`~repro.obs.TraceReport` checks the subsystems ship
(``resilience_check``, ``sdc_check``, ``serve_check``, ``deploy_check``,
``health_check`` — each adapted by :func:`_reconciles`) and adds the
global invariants the one-off suites never stated explicitly:

* **request conservation** — every admitted request is answered exactly
  once, per version and in total;
* **bit-exact transient-chaos equivalence** — a transient-only training
  run reproduces the fault-free loss history bit-for-bit;
* **checkpoint monotonicity** — checkpoint directories name strictly
  increasing steps, never beyond the horizon, and a completed run's
  newest checkpoint is the final step;
* **no alert without cause** — a fault-class alert may only fire when
  the injector actually dealt that fault class (the false-positive
  direction of alert fidelity, applicable even when coverage is not —
  e.g. a serve fail-stop on a worker that is never dispatched to again
  is legitimately unobservable).

Applicability is part of the invariant: each one declares the workloads
it covers and the outcomes it may judge.  Reconciliation checks only run
on ``completed`` outcomes — a run that legitimately escalated (e.g.
:class:`~repro.resilience.ClusterFailure` on an exhausted restart
budget) aborts mid-flight with accounting that is *correctly* partial.

A crashing invariant function is itself reported as a violation of that
invariant rather than aborting the scenario — the harness must never
lose a finding to a bug in a check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.health import health_check
from ..obs.report import TraceReport
from ..resilience.faults import resilience_check, sdc_check
from ..serve.deploy import deploy_check
from ..serve.service import serve_check
from .scenario import Scenario

__all__ = ["Violation", "Invariant", "InvariantRegistry", "sanitize"]


def sanitize(obj):
    """Recursively coerce ``obj`` to canonical JSON-safe values (numpy
    scalars unwrapped, integral floats collapsed to int, dict keys
    stringified) so violation details serialize identically on replay."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return int(f) if f.is_integer() and abs(f) < 2**53 else f
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [sanitize(v) for v in obj]
        return sorted(items, key=repr) if isinstance(
            obj, (set, frozenset)) else items
    return repr(obj)


@dataclass(frozen=True)
class Violation:
    """One invariant failure, uniformly reported and JSON-stable."""

    invariant: str
    message: str
    details: tuple = ()

    @classmethod
    def of(cls, invariant: str, message: str, **details) -> "Violation":
        return cls(invariant=invariant, message=message,
                   details=tuple(sorted(
                       (k, json.dumps(sanitize(v), sort_keys=True))
                       for k, v in details.items())))

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "message": self.message,
                "details": {k: json.loads(v) for k, v in self.details}}

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls.of(data["invariant"], data["message"],
                      **data.get("details", {}))


@dataclass(frozen=True)
class Invariant:
    """A named predicate over one run's artifacts.

    ``fn(scenario, artifacts) -> list[Violation]``; ``workloads`` limits
    which scenario families it judges and ``outcomes`` which terminal
    outcomes (empty = all, including crashes).
    """

    name: str
    fn: Callable[[Scenario, dict], list]
    workloads: tuple = ("train", "guarded_train", "serve", "serve_deploy")
    outcomes: tuple = ("completed",)

    def applies(self, scenario: Scenario, outcome: str) -> bool:
        return (scenario.workload in self.workloads
                and (not self.outcomes or outcome in self.outcomes))


class InvariantRegistry:
    """Ordered collection of invariants evaluated over one run."""

    def __init__(self):
        self.invariants: list[Invariant] = []

    def register(self, invariant: Invariant) -> None:
        if invariant.name in self.names():
            raise ValueError(f"duplicate invariant {invariant.name!r}")
        self.invariants.append(invariant)

    def names(self) -> list[str]:
        return [inv.name for inv in self.invariants]

    def needs(self, name: str) -> bool:
        return name in self.names()

    def evaluate(self, scenario: Scenario, artifacts: dict) -> list:
        """All violations over one finished run, deterministically
        ordered.  An invariant that raises contributes a violation of
        itself (the harness never swallows a broken check)."""
        outcome = artifacts.get("outcome", "crashed")
        violations: list[Violation] = []
        for inv in self.invariants:
            if not inv.applies(scenario, outcome):
                continue
            try:
                violations.extend(inv.fn(scenario, artifacts))
            except Exception as exc:  # noqa: BLE001 — reported, not lost
                violations.append(Violation.of(
                    inv.name, "invariant check crashed",
                    error=f"{type(exc).__name__}: {exc}"))
        return sorted(violations,
                      key=lambda v: (v.invariant, v.message, v.details))

    @classmethod
    def default(cls) -> "InvariantRegistry":
        reg = cls()
        reg.register(Invariant("scenario.clean_exit", _clean_exit,
                               outcomes=()))
        reg.register(_reconciles(
            "resilience.faults_observed", resilience_check, ("injector",),
            "injected faults do not reconcile with observed detections",
            ("per_kind",), workloads=("train",)))
        reg.register(Invariant("train.transient_bit_exact",
                               _transient_bit_exact, workloads=("train",)))
        reg.register(Invariant(
            "train.checkpoint_monotonic", _checkpoint_monotonic,
            workloads=("train",),
            outcomes=("completed", "cluster_failure")))
        reg.register(_reconciles(
            "obs.alert_fidelity", health_check, ("monitor", "injector"),
            "fired alerts do not reconcile with injected fault classes",
            ("per_fault",), workloads=("train", "guarded_train")))
        reg.register(_reconciles(
            "sdc.recovery_closed", sdc_check, ("injector",),
            "compute-domain corruption not fully detected and healed",
            ("per_kind", "recovered"), workloads=("guarded_train", "serve")))
        reg.register(_reconciles(
            "serve.request_conservation", serve_check, ("service",),
            "request lifecycle accounting does not balance",
            ("per_event", "conservation"),
            workloads=("serve", "serve_deploy")))
        reg.register(Invariant(
            "serve.responses_complete", _responses_complete,
            workloads=("serve", "serve_deploy")))
        reg.register(Invariant(
            "serve.forecast_sdc_accounting", _forecast_sdc,
            workloads=("serve", "serve_deploy")))
        reg.register(Invariant(
            "obs.no_alert_without_cause", _no_alert_without_cause,
            workloads=("serve", "serve_deploy")))
        reg.register(Invariant("deploy.lifecycle", _deploy_lifecycle,
                               workloads=("serve_deploy",)))
        return reg


# -- built-in invariant functions ----------------------------------------------
def _run(art: dict, check, *keys) -> dict:
    """One TraceReport check over the run's tracer/registry, its subjects
    named by artifact key."""
    return TraceReport(tracer=art["tracer"], registry=art["registry"]).run(
        check, *(art[key] for key in keys))


def _reconciles(name: str, check, keys: tuple, message: str,
                details: tuple, **applicability) -> Invariant:
    """The invariant "``check`` over artifacts ``keys`` agrees"; a
    disagreement is one violation carrying the ``details`` result keys."""
    def fn(scenario: Scenario, art: dict) -> list:
        result = _run(art, check, *keys)
        if result["agrees"]:
            return []
        return [Violation.of(name, message,
                             **{key: result[key] for key in details})]
    return Invariant(name, fn, **applicability)


def _clean_exit(scenario: Scenario, art: dict) -> list:
    """Only typed resilience escalations may end a run early; anything
    else (or an unrecognized outcome) is a harness-visible bug."""
    outcome = art.get("outcome", "crashed")
    if outcome in ("completed", "cluster_failure", "compute_escalation",
                   "comm_escalation"):
        return []
    return [Violation.of("scenario.clean_exit",
                         f"run ended with outcome {outcome!r}",
                         error=art.get("error", ""))]


def _transient_bit_exact(scenario: Scenario, art: dict) -> list:
    """Transient faults heal bit-exactly, so the chaos history must equal
    the fault-free twin's exactly (skipped when the runner ran no twin —
    fail-stop scenarios legitimately diverge after a re-grid)."""
    twin = art.get("twin_history")
    if twin is None:
        return []
    history = art["result"]["history"]
    if list(history) == list(twin):
        return []
    diverged = next((i for i, (a, b) in enumerate(zip(history, twin))
                     if a != b), min(len(history), len(twin)))
    return [Violation.of(
        "train.transient_bit_exact",
        "transient-only run diverged from the fault-free twin",
        first_divergence_step=diverged, chaos_len=len(history),
        twin_len=len(twin))]


def _checkpoint_monotonic(scenario: Scenario, art: dict) -> list:
    # The runner captures checkpoint-directory basenames before reaping
    # its per-run tmpdir, so this judges the recorded listing, not disk.
    steps = []
    bad: list[Violation] = []
    for name in art.get("checkpoint_dirs", []):
        try:
            steps.append(int(name.split("-", 1)[1]))
        except (IndexError, ValueError):
            bad.append(Violation.of(
                "train.checkpoint_monotonic",
                f"unparseable checkpoint directory name {name!r}"))
    n_steps = scenario.train.n_steps
    if any(b >= a for a, b in zip(steps[1:], steps)):
        bad.append(Violation.of(
            "train.checkpoint_monotonic",
            "checkpoint steps are not strictly increasing", steps=steps))
    if steps and steps[-1] > n_steps:
        bad.append(Violation.of(
            "train.checkpoint_monotonic",
            "checkpoint beyond the scenario horizon",
            last=steps[-1], horizon=n_steps))
    if (art.get("outcome") == "completed" and scenario.train.save_every
            and (not steps or steps[-1] != n_steps)):
        bad.append(Violation.of(
            "train.checkpoint_monotonic",
            "completed run did not leave a final-step checkpoint",
            steps=steps, horizon=n_steps))
    return bad


def _responses_complete(scenario: Scenario, art: dict) -> list:
    """Every submitted request gets exactly one response; completed
    responses carry a forecast the guardrails accept."""
    responses = art["responses"]
    service = art["service"]
    bad: list[Violation] = []
    if len(responses) != scenario.serve.n_requests:
        bad.append(Violation.of(
            "serve.responses_complete",
            "response count differs from submitted requests",
            responses=len(responses),
            requests=scenario.serve.n_requests))
    seen = {}
    for r in responses:
        seen[r.request.request_id] = seen.get(r.request.request_id, 0) + 1
    doubled = {rid: n for rid, n in seen.items() if n != 1}
    if doubled:
        bad.append(Violation.of(
            "serve.responses_complete",
            "requests answered more than once (or unidentifiable)",
            counts=doubled))
    for r in responses:
        if r.status == "completed":
            if r.forecast is None:
                bad.append(Violation.of(
                    "serve.responses_complete",
                    "completed response without a forecast",
                    request=r.request.request_id))
            elif service.validator is not None \
                    and service.validator.validate(r.forecast):
                bad.append(Violation.of(
                    "serve.responses_complete",
                    "served forecast violates the physical guardrails",
                    request=r.request.request_id))
        elif r.status not in ("rejected", "timeout", "failed"):
            bad.append(Violation.of(
                "serve.responses_complete",
                f"unknown response status {r.status!r}",
                request=r.request.request_id))
    return bad


def _forecast_sdc(scenario: Scenario, art: dict) -> list:
    """Poisoned forecasts must be quarantined: exactly one quarantine per
    injected forecast fault (a poisoned *candidate model* in a deploy
    scenario legitimately adds organic quarantines on top, so the deploy
    workload checks the weaker >= direction)."""
    row = _run(art, sdc_check, "injector")["per_kind"]["sdc_forecast"]
    injected, quarantined = row["injected"], row["detected"]
    exact = scenario.workload == "serve"
    ok = quarantined == injected if exact else quarantined >= injected
    if ok:
        return []
    return [Violation.of(
        "serve.forecast_sdc_accounting",
        "injected forecast corruption escaped the guardrails"
        if quarantined < injected else
        "guardrail quarantines without matching injected corruption",
        injected=injected, quarantined=quarantined)]


def _no_alert_without_cause(scenario: Scenario, art: dict) -> list:
    """The false-positive direction of ``health_check`` alone: coverage
    is not owed here (a serve fail-stop on a worker never dispatched to
    again is legitimately unobservable)."""
    check = _run(art, health_check, "monitor", "injector")
    fired = check["alert_kinds_fired"]
    bad: list[Violation] = []
    for fault, row in check["per_fault"].items():
        if row["alerted"] and not row["injected"]:
            # A poisoned candidate corrupts forecasts without the
            # injector's involvement — its quarantine alert has a cause.
            if (fault == "sdc_forecast"
                    and scenario.workload == "serve_deploy"
                    and scenario.deploy.poison_candidate):
                continue
            bad.append(Violation.of(
                "obs.no_alert_without_cause",
                f"alert {row['alert_kind']!r} fired with no injected "
                f"{fault!r} fault"))
    if "deploy.rollback" in fired:
        controller = art.get("controller")
        if controller is None or controller.state != "rolled_back":
            bad.append(Violation.of(
                "obs.no_alert_without_cause",
                "deploy.rollback alert fired without a rollback"))
    return bad


def _deploy_lifecycle(scenario: Scenario, art: dict) -> list:
    controller = art["controller"]
    bad: list[Violation] = []
    if controller.state not in ("canary", "promoted", "rolled_back"):
        bad.append(Violation.of(
            "deploy.lifecycle",
            f"controller ended in unexpected state {controller.state!r}"))
    return bad + _reconciles(
        "deploy.lifecycle", deploy_check, ("service", "controller"),
        "deployment accounting does not reconcile",
        ("per_version", "ledger", "terminal")).fn(scenario, art)
