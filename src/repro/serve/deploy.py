"""Canary rollout: drive a candidate model version through live traffic.

The :class:`DeploymentController` is the *online* half of the model
lifecycle (the offline half — scorecards and the skill gate — lives in
:mod:`repro.registry`).  It attaches to a running
:class:`~repro.serve.ForecastService` and:

* loads a ``servable`` candidate version next to the incumbent
  (workers hot-swap weights per batch; the forecast cache's
  weights-digest keying isolates the versions completely);
* routes a deterministic fraction of admissions to the candidate
  (content-hash routing — the same request always lands on the same
  version, so reruns are reproducible);
* **shadows** a fraction of incumbent-served requests: the candidate
  re-forecasts them out-of-band (never enqueued — request conservation
  is untouched) and the outputs are checked against the physical
  guardrails and, when a ``truth_fn`` is available, an ensemble-mean
  RMSE skill proxy versus the incumbent's served answer;
* **auto-promotes** after a clean observation window, or
  **auto-rolls-back** on SLO burn, guardrail quarantines, candidate
  failures, or shadow-skill regression — rollback unloads the candidate
  and re-routes its queued requests onto the incumbent, so no request is
  lost or double-served across the swap (reconciled by
  :func:`deploy_check`).

Every transition is booked as ``deploy.*`` metrics and flight-recorder
events; a rollback additionally fires a critical ``deploy.rollback``
alert when a health monitor is attached.

Why both gate *and* canary: the gate catches regressions measurable on
the held-out window; the canary catches what only shows up in the
serving path — a corrupted weight load on the way to the workers
(deployment skew, the SDC threat model applied to weight distribution),
guardrail violations under live initial conditions, latency burn from a
heavier candidate.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import health as _obs_health
from ..obs.profile import record_event as _record_event
from .api import ForecastRequest, ForecastResponse
from .service import ForecastService

__all__ = ["DeployConfig", "DeploymentController", "deploy_check"]


#: Candidate SLO misses, guardrail quarantines and failed responses
#: tolerated before rollback.
MAX_SLO_MISSES = 2
MAX_QUARANTINES = 0
MAX_FAILURES = 0


@dataclass(frozen=True)
class DeployConfig:
    """Canary policy knobs."""

    #: Fraction of eligible admissions routed to the candidate.
    canary_fraction: float = 0.25
    #: Fraction of incumbent-served completions shadow-checked.
    shadow_fraction: float = 0.5
    #: Candidate completions required before auto-promotion.
    observation_window: int = 8
    #: Shadow skill: candidate ensemble-mean RMSE may exceed the
    #: incumbent's by at most this fraction (needs ``truth_fn``).
    shadow_skill_tol: float = 0.10
    #: Shadow regressions (skill or guardrail) tolerated before rollback.
    max_shadow_regressions: int = 1
    #: Salt for the deterministic routing / shadow-sampling hashes.
    seed: int = 0


def _hash_fraction(salt: str, request: ForecastRequest) -> float:
    """Deterministic request -> [0, 1) (stable across reruns, spread
    across request content)."""
    text = (f"{salt}|{request.request_id}|{request.seed}"
            f"|{request.start_index}|{request.tier}|{request.n_steps}"
            f"|{request.arrival_s!r}")
    return (zlib.crc32(text.encode()) % 100_000) / 100_000.0


class DeploymentController:
    """Drives one candidate version through canary -> live (or back).

    Parameters
    ----------
    service:
        The running :class:`ForecastService`; its ``versions.active`` at
        construction time is the incumbent.
    registry:
        Optional :class:`~repro.registry.ModelRegistry`.  When given,
        the candidate must be ``servable`` (i.e. it passed the skill
        gate), lifecycle transitions are written back (``canary`` /
        ``live`` / ``rolled_back`` / ``retired``), and a digest mismatch
        between the registered weights and the deployed binding is
        booked as ``deploy.digest_skew`` — the canary's whole job is to
        catch exactly that copy serving traffic.
    truth_fn:
        Optional ``request -> (n_steps + 1, H, W, C)`` verifying
        trajectory for shadow-skill scoring (e.g. the analysis that
        later became available for that initial condition).  Without it,
        shadows still run the physical guardrails (the service's
        validator).
    """

    def __init__(self, service: ForecastService, registry=None,
                 config: DeployConfig | None = None, truth_fn=None):
        self.service = service
        self.versions = service.versions
        self.registry = registry
        self.config = config if config is not None else DeployConfig()
        self.truth_fn = truth_fn
        self.state = "idle"
        self.incumbent = self.versions.active
        self.incumbent_digest = \
            self.versions.bindings[self.incumbent].weights_digest
        self.candidate: str | None = None
        self.candidate_digest: str | None = None
        self.transitions: list[dict] = []
        self.counts = {"candidate_completed": 0, "candidate_failed": 0,
                       "candidate_quarantined": 0, "candidate_slo_miss": 0,
                       "shadows": 0, "shadow_regressions": 0,
                       "reassigned": 0}
        #: (version, status) -> responses observed by the hook.
        self.observed: dict[tuple, int] = {}

    # -- bookkeeping ---------------------------------------------------------
    def _transition(self, kind: str, severity: str = "info",
                    **data) -> None:
        entry = {"kind": kind, "state": self.state, **data}
        self.transitions.append(entry)
        _count("deploy.transitions", "canary lifecycle transitions", 1,
               kind=kind)
        _record_event(f"deploy.{kind}", subsystem="deploy",
                      severity=severity, **data)

    def _book_response(self, response: ForecastResponse) -> None:
        key = (response.version, response.status)
        self.observed[key] = self.observed.get(key, 0) + 1
        _count("deploy.requests", "responses observed during canary", 1,
               version=response.version, status=response.status)

    # -- rollout -------------------------------------------------------------
    def start_canary(self, version: str, forecaster=None) -> None:
        """Load ``version`` and start routing canary traffic to it.

        ``forecaster`` defaults to materializing the version from the
        registry (digest-faithful by construction); passing a pre-built
        one models a separate distribution pipeline, whose copy may
        *differ* from the registered bytes — that skew is booked, and
        catching its consequences online is what the canary is for.
        """
        if self.state != "idle":
            raise RuntimeError(f"controller is {self.state!r}, not idle")
        record = None
        if self.registry is not None:
            record = self.registry.get(version)
            if record.status != "servable":
                raise ValueError(
                    f"candidate {version!r} is {record.status!r}, not "
                    "servable — gate it first")
        if forecaster is None:
            if self.registry is None:
                raise ValueError("need a forecaster or a registry to "
                                 "materialize one from")
            forecaster = self.registry.forecaster(
                version, forcing_fn=self.service.base.forcing_fn)
        binding = self.versions.add(version, forecaster)
        self.candidate = version
        self.candidate_digest = binding.weights_digest
        skew = (record is not None
                and record.weights_digest != binding.weights_digest)
        if skew:
            _record_event("deploy.digest_skew", subsystem="deploy",
                          severity="warning", version=version,
                          registered=record.weights_digest[:12],
                          deployed=binding.weights_digest[:12])
        if self.registry is not None:
            self.registry.set_status(version, "canary",
                                     reason="canary rollout started")
        self.versions.router = self._route
        self.service.response_hook = self._on_response
        self.state = "canary"
        self._transition("canary_start", version=version,
                         incumbent=self.incumbent,
                         fraction=self.config.canary_fraction,
                         digest=binding.weights_digest[:12],
                         digest_skew=skew)

    def _route(self, request: ForecastRequest) -> str:
        if (self.state == "canary"
                and request.tier in
                self.versions.bindings[self.candidate].steppers
                and _hash_fraction(f"route{self.config.seed}", request)
                < self.config.canary_fraction):
            return self.candidate
        return self.versions.active

    # -- online observation --------------------------------------------------
    def _on_response(self, response: ForecastResponse,
                     now: float) -> None:
        if self.state != "canary" or response.status == "rejected":
            return
        self._book_response(response)
        if response.version == self.candidate:
            self._observe_candidate(response)
        elif (response.version == self.incumbent
              and response.status == "completed"
              and _hash_fraction(f"shadow{self.config.seed}",
                                 response.request)
              < self.config.shadow_fraction):
            self._shadow(response)
        if self.state != "canary":
            return
        cfg, c = self.config, self.counts
        if c["candidate_slo_miss"] > MAX_SLO_MISSES:
            self.rollback("slo_burn")
        elif c["candidate_quarantined"] > MAX_QUARANTINES:
            self.rollback("guardrail_quarantines")
        elif c["candidate_failed"] > MAX_FAILURES:
            self.rollback("candidate_failures")
        elif c["shadow_regressions"] >= cfg.max_shadow_regressions:
            self.rollback("shadow_skill_regression")
        elif c["candidate_completed"] >= cfg.observation_window:
            self.promote()

    def _observe_candidate(self, response: ForecastResponse) -> None:
        c = self.counts
        if response.status == "completed":
            c["candidate_completed"] += 1
            c["candidate_quarantined"] += response.quarantines
            policy = self.service.router.route(response.request.tier)
            if response.latency_s > policy.slo_s:
                c["candidate_slo_miss"] += 1
        elif response.status == "failed":
            c["candidate_failed"] += 1

    def _shadow(self, response: ForecastResponse) -> None:
        """Re-forecast an incumbent-served request with the candidate,
        out-of-band, and compare.  The shadow never enters the queue —
        request conservation across the service is untouched."""
        req = response.request
        steppers = self.versions.bindings[self.candidate].steppers
        if req.tier not in steppers:
            # The candidate cannot serve this tier (e.g. deployed without
            # a distilled student, so no "fast" sampler) — the router
            # never sends it such traffic, and the shadow must apply the
            # same guard instead of crashing the response hook.
            return
        forecast = steppers[req.tier].ensemble_rollout(
            np.asarray(req.init_state, dtype=np.float32), req.n_steps,
            n_members=req.n_members, seed=req.seed,
            start_index=req.start_index)
        self.counts["shadows"] += 1
        outcome = "clean"
        detail = ""
        validator = self.service.validator
        if validator is not None and validator.validate(forecast):
            outcome = "guardrail_violation"
            detail = "candidate shadow violates physical bounds"
        elif self.truth_fn is not None and req.variables is None:
            truth = np.asarray(self.truth_fn(req), dtype=np.float32)
            cand = _ens_rmse(forecast, truth)
            inc = _ens_rmse(response.forecast, truth)
            if cand > inc * (1.0 + self.config.shadow_skill_tol):
                outcome = "skill_regression"
                detail = (f"candidate rmse {cand:.4f} vs incumbent "
                          f"{inc:.4f} (tol "
                          f"{self.config.shadow_skill_tol:.0%})")
        if outcome != "clean":
            self.counts["shadow_regressions"] += 1
        _count("deploy.shadows", "candidate shadow forecasts", 1,
               outcome=outcome)
        _record_event("deploy.shadow", subsystem="deploy",
                      severity="info" if outcome == "clean" else "warning",
                      version=self.candidate, outcome=outcome,
                      detail=detail)

    # -- terminal transitions ------------------------------------------------
    def promote(self) -> None:
        """Candidate becomes the active (and registry-live) version."""
        if self.state != "canary":
            raise RuntimeError(f"cannot promote while {self.state!r}")
        self.versions.router = None
        self.versions.activate(self.candidate)
        if self.registry is not None:
            if self.registry.live() == self.incumbent:
                self.registry.set_status(
                    self.incumbent, "retired",
                    reason=f"superseded by {self.candidate}")
            self.registry.set_status(self.candidate, "live",
                                     reason="canary window clean")
        self.state = "promoted"
        self._transition("promote", version=self.candidate,
                         retired=self.incumbent,
                         observed=self.counts["candidate_completed"],
                         shadows=self.counts["shadows"])

    def rollback(self, reason: str) -> None:
        """Withdraw the candidate and restore the incumbent exactly.

        The candidate's queued requests are re-routed to the incumbent
        (none lost), its binding is unloaded, and — when a health
        monitor is attached — a critical ``deploy.rollback`` alert
        fires.  The incumbent was never deactivated during canary, so
        restoring it is a no-op on the digest: ``deploy_check`` asserts
        the active binding's weights digest equals the one recorded at
        controller construction.
        """
        if self.state != "canary":
            raise RuntimeError(f"cannot rollback while {self.state!r}")
        self.versions.router = None
        if self.versions.active != self.incumbent:
            self.versions.activate(self.incumbent)
        moved = self.versions.remove(self.candidate)
        self.counts["reassigned"] += moved
        if self.registry is not None:
            self.registry.set_status(self.candidate, "rolled_back",
                                     reason=reason)
        self.state = "rolled_back"
        self._transition("rollback", severity="critical",
                         version=self.candidate, reason=reason,
                         restored=self.incumbent, reassigned=moved,
                         counts=dict(self.counts))
        monitor = _obs_health()
        if monitor is not None:
            monitor.alerts.fire(
                "deploy.rollback", "critical", "deploy",
                f"canary {self.candidate} rolled back ({reason}); "
                f"incumbent {self.incumbent} restored",
                version=self.candidate, reason=reason)

    def summary(self) -> dict:
        return {"state": self.state, "incumbent": self.incumbent,
                "candidate": self.candidate,
                "incumbent_digest": self.incumbent_digest,
                "candidate_digest": self.candidate_digest,
                "counts": dict(self.counts),
                "transitions": [dict(t) for t in self.transitions],
                "observed": {f"{v}/{s}": n
                             for (v, s), n in sorted(self.observed.items())}}


def _ens_rmse(forecast: np.ndarray, truth: np.ndarray) -> float:
    """Flat RMSE of the ensemble mean against a verifying trajectory."""
    err = forecast.astype(np.float64).mean(axis=0) - truth
    return float(np.sqrt(np.mean(err * err)))


def deploy_check(report, service: ForecastService,
                 controller: DeploymentController) -> dict:
    """A rolling version swap must lose nothing and land somewhere
    definite.

    A :class:`repro.obs.TraceReport` check: three families of identities
    over a canary rollout driven by a :class:`DeploymentController`:

    * **per-version request conservation** — for every version that
      appeared in the lifecycle counters, ``accepted + reassigned_in
      - reassigned_out = completed + timeout + failed``.  A request
      admitted under the candidate and answered under the incumbent
      after a rollback is *moved*, not lost; a request answered twice
      breaks the identity from the other side.  Summed over versions
      this must also equal the service tally, so no response escaped
      version accounting.
    * **controller ledger vs metrics** — the controller's transition
      list and shadow count must match the ``deploy.transitions`` /
      ``deploy.shadows`` counters exactly (the hook path booked every
      decision it made).
    * **terminal digest** — after a rollback the active binding's
      weights digest equals the incumbent digest recorded at
      controller construction (restored *exactly*, not approximately)
      and the candidate is unloaded; after a promotion it equals the
      candidate digest.  When a registry is attached, its notion of
      the live/rolled-back version must agree.
    """
    registry = report.registry
    counter = registry.counter("serve.requests")
    moved = registry.counter("serve.requests_reassigned")
    answers = ("completed", "timeout", "failed")
    per_version = {}
    for v in sorted({dict(key)["version"] for key in counter.series
                     if "version" in dict(key)}):
        accepted = counter.total(event="accepted", version=v)
        answered = {e: counter.total(event=e, version=v) for e in answers}
        moved_in, moved_out = moved.total(dst=v), moved.total(src=v)
        per_version[v] = {"accepted": accepted, **answered,
                          "reassigned_in": moved_in,
                          "reassigned_out": moved_out,
                          "conserved": accepted + moved_in - moved_out
                          == sum(answered.values())}
    covered = (
        sum(r["accepted"] for r in per_version.values())
        == service.tally["accepted"]
        and sum(r[e] for r in per_version.values() for e in answers)
        == sum(service.tally[e] for e in answers))

    transitions = registry.counter("deploy.transitions")
    by_kind = Counter(t["kind"] for t in controller.transitions)
    ledger = {
        "transitions_match":
            transitions.total() == len(controller.transitions)
            and all(transitions.total(kind=k) == n
                    for k, n in by_kind.items()),
        "shadows_match":
            registry.counter("deploy.shadows").total()
            == controller.counts["shadows"],
        "reassigned_match":
            moved.total() == controller.counts["reassigned"],
    }

    active = service.versions.bindings[service.versions.active]
    landed = {}  # the terminal state's verdicts
    if controller.state == "rolled_back":
        landed["incumbent_restored"] = (
            service.versions.active == controller.incumbent
            and active.weights_digest == controller.incumbent_digest)
        landed["candidate_unloaded"] = \
            controller.candidate not in service.versions.bindings
        if controller.registry is not None:
            landed["registry_agrees"] = (
                controller.registry.get(controller.candidate).status
                == "rolled_back"
                and controller.registry.live() != controller.candidate)
    elif controller.state == "promoted":
        landed["candidate_live"] = (
            service.versions.active == controller.candidate
            and active.weights_digest == controller.candidate_digest)
        if controller.registry is not None:
            landed["registry_agrees"] = (
                controller.registry.live() == controller.candidate)
    agrees = (all(r["conserved"] for r in per_version.values()) and covered
              and all(ledger.values()) and all(landed.values()))
    parts = [f"{v} {int(r['accepted']):d}acc{'' if r['conserved'] else '!'}"
             for v, r in per_version.items()]
    return {"check": "deploy", "per_version": per_version,
            "tally_covered": covered, "ledger": ledger,
            "terminal": {"state": controller.state,
                         "active_version": service.versions.active,
                         "active_digest": active.weights_digest[:12],
                         **landed},
            "counts": dict(controller.counts), "agrees": agrees,
            "summary": f"deploy ({controller.state}): {', '.join(parts)} | "
                       f"active {service.versions.active}"
                       f"@{active.weights_digest[:12]} | ledger "
                       f"{'OK' if all(ledger.values()) else 'BAD'} | "
                       f"{'OK' if agrees else 'MISMATCH'}"}
