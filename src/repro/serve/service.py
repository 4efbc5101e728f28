"""``ForecastService``: the serving event loop tying queue, batcher,
cache, tiers, and workers together.

The service is a discrete-event simulation of a production inference
tier, the same way :class:`~repro.parallel.SimCluster` is one of a
fabric: requests arrive on a virtual clock (their ``arrival_s`` stamps),
admission and batching are instantaneous, and each micro-batch occupies
its worker for the *measured wall time* of its stacked model forwards.
Latency percentiles, SLO attainment, and capacity degradation under
worker fail-stops therefore come out of real compute against a
reproducible arrival process.

Serving pipeline per batch::

    queue (priority, admission, deadlines)
      → micro-batcher (coalesce same-tier requests; one stacked forward
        per solver evaluation serves every member)
      → worker dispatch of :func:`~repro.serve.batcher.execute_batch`
        (cache prefix restore → tier sampler → cache fill → per-request
        rows), re-dispatched elsewhere while a guardrail objects
      → one response per request

For a fixed seed the served forecast is **bit-identical** to a direct
:meth:`ResidualForecaster.ensemble_rollout` at the same tier — batching
is per-row exact and cache entries are exact copies — which is asserted
end-to-end by ``tests/serve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..data import TOY_SET
from ..diffusion import ResidualForecaster
from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..obs.report import TraceReport
from ..resilience import ResilienceError
from .api import ForecastRequest, ForecastResponse, Rejected, Timeout
from .batcher import BatcherConfig, MicroBatch, MicroBatcher, execute_batch
from .cache import ForecastCache, array_digest
from .guardrails import book_quarantine
from .queue import AdmissionQueue, PendingRequest
from .samplers import SloTracker, TierRouter
from .versions import VersionTable
from .worker import ServeWorkerPool

__all__ = ["ServiceConfig", "ForecastService", "serve_check"]

#: Re-dispatches a quarantined batch may attempt (on a *different* worker)
#: before its still-invalid requests fail.
GUARDRAIL_RERUNS = 1

#: Channel names a request's ``variables`` select from: the inventory of
#: every model the repo trains.
VARIABLE_NAMES = list(TOY_SET.names)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (tier policies live on the router)."""

    n_workers: int = 1
    cache_bytes: int = 64 << 20
    batcher: BatcherConfig = field(default_factory=BatcherConfig)


class ForecastService:
    """Serves :class:`ForecastRequest`\\ s in front of a trained model.

    Parameters
    ----------
    forecaster:
        The diffusion path (``standard`` / ``high`` tiers): typically
        ``trainer.forecaster()`` — EMA weights, paper solver defaults.
        Its solver config is *overridden per tier* by the router's
        policies.
    student:
        Optional consistency-distilled one-step model (``fast`` tier).
        Without it, fast requests are rejected as ``tier_unavailable``.
    cluster / injector:
        Resilience wiring for the worker pool (see
        :class:`~repro.serve.ServeWorkerPool`).
    duration_fn:
        Optional ``result -> seconds`` virtual-duration model forwarded
        to the worker pool; ``None`` keeps the default wall-clock
        charging (deterministic simulation runs pass an analytic model
        so the event loop replays bit-exactly).
    validator:
        Optional :class:`~repro.serve.ForecastValidator`.  When set,
        every served forecast is checked against per-variable physical
        bounds *before* the response leaves the service; a violating
        batch is quarantined, re-run on a different worker (at most
        ``GUARDRAIL_RERUNS`` times), and fails only if still absurd.
    """

    def __init__(self, forecaster: ResidualForecaster, student=None,
                 config: ServiceConfig | None = None,
                 router: TierRouter | None = None,
                 cluster=None, injector=None, validator=None,
                 version: str = "v0", duration_fn=None):
        self.config = config if config is not None else ServiceConfig()
        self.router = router if router is not None else TierRouter()
        self.base = forecaster
        self.validator = validator
        self.cache = ForecastCache(self.config.cache_bytes)
        self.queue = AdmissionQueue(self.router)
        self.batcher = MicroBatcher(self.queue, self.config.batcher)
        self.pool = ServeWorkerPool(self.config.n_workers, cluster=cluster,
                                    injector=injector,
                                    duration_fn=duration_fn)
        self.slo = SloTracker(self.router.policies)
        #: Which version answers which request (born serving ``version``).
        self.versions = VersionTable(self.router.policies, self.queue)
        self.versions.add(version, forecaster, student)
        #: Optional ``(response, now) -> None`` tap, called for every
        #: response the event loop emits (the deployment controller's
        #: online observation point).
        self.response_hook = None
        self.tally = {"submitted": 0, "accepted": 0, "rejected": 0,
                      "completed": 0, "timeout": 0, "failed": 0}

    def stepper(self, tier: str):
        """The stepper serving ``tier`` for the active version.  Useful
        for comparing served output against a direct rollout — they are
        bit-identical for the same seed."""
        return self.versions.bindings[self.versions.active].steppers[tier]

    # -- accounting ----------------------------------------------------------
    def _book(self, event: str, tier: str, **labels) -> None:
        self.tally[event] += 1
        _count("serve.requests", "request lifecycle events", 1,
               event=event, tier=tier, **labels)
        _record_event(f"serve.{event}", subsystem="serve",
                      severity=("warning" if event in ("rejected",
                                                       "timeout", "failed")
                                else "info"), tier=tier, **labels)

    # -- admission -----------------------------------------------------------
    def _variable_indices(self, request: ForecastRequest) -> list[int] | None:
        if request.variables is None:
            return None
        try:
            return [VARIABLE_NAMES.index(v) for v in request.variables]
        except ValueError as exc:
            raise Rejected("unknown_variable", str(exc)) from None

    def _admit(self, request: ForecastRequest,
               now: float) -> ForecastResponse | None:
        """Queue the request; a rejection becomes an immediate response."""
        self._book("submitted", request.tier)
        try:
            version, _ = self.versions.admit(request)
            variables = self._variable_indices(request)
            pending = self.queue.submit(request, now, version=version)
        except Rejected as exc:
            self._book("rejected", request.tier, reason=exc.reason)
            return ForecastResponse(request=request, status="rejected",
                                    error=str(exc))
        # over the float32 bytes every member task of the request starts from
        pending.init_digest = array_digest(
            np.asarray(request.init_state, dtype=np.float32))
        pending.variables = variables
        self._book("accepted", request.tier, version=version)
        return None

    # -- responses -----------------------------------------------------------
    def _unserved(self, pending: PendingRequest, status: str, error: str,
                  queue_wait_s: float = 0.0) -> ForecastResponse:
        """The response of an accepted request that got no forecast
        (``timeout`` / ``failed``)."""
        self._book(status, pending.request.tier, version=pending.version)
        return ForecastResponse(request=pending.request, status=status,
                                error=error, queue_wait_s=queue_wait_s,
                                version=pending.version)

    def _emit(self, responses: list, response: ForecastResponse,
              now: float) -> None:
        """Append a response and fire the observation hook.  The hook
        runs between event-loop steps, so a deployment controller may
        swap routing / bindings here without racing an in-flight batch."""
        responses.append(response)
        if self.response_hook is not None:
            self.response_hook(response, now)

    # -- one batch: dispatch → poison → validate → re-dispatch elsewhere -------
    def _serve_batch(self, now: float, batch: MicroBatch):
        """Dispatch ``batch`` under its version's weights (the pool
        hot-swaps a worker holding a different version) and hold every
        forecast to the physical guardrails: a violating batch is
        quarantined and re-dispatched on a *different* worker while
        re-runs remain.

        Returns ``(worker, end, result)``, one row per request in
        ``result["rows"]`` (:func:`~repro.serve.batcher.execute_batch`).
        A row with an ``"error"`` failed: every row, with the fault's own
        message and ``end = now``, when the first dispatch found no
        capacity; the still-invalid rows after the last permitted re-run
        (every row if that re-run could not be placed).
        """
        binding = self.versions.bindings[batch.version]
        stepper = binding.steppers[batch.policy.name]
        weights, solver = binding.digests[batch.policy.name]
        payload = np.stack([np.asarray(p.request.init_state,
                                       dtype=np.float32)
                            for p in batch.requests
                            for _ in range(p.request.n_members)])
        inj = self.pool.injector
        worker, end, result, bad = None, now, None, []
        error = "forecast failed physical guardrails"
        for rerun in range(GUARDRAIL_RERUNS + 1):
            if rerun:
                _count("serve.guardrail_reruns",
                       "quarantined batches re-dispatched", 1,
                       tier=batch.policy.name)
                _record_event("serve.guardrail_rerun", subsystem="serve",
                              severity="warning", tier=batch.policy.name,
                              excluded_worker=worker.rank,
                              quarantined=len(bad))
            try:
                worker, end, fresh = self.pool.dispatch(
                    end, lambda: execute_batch(batch, stepper, self.cache,
                                               weights, solver),
                    payload=payload, version=batch.version,
                    exclude=None if worker is None else worker.rank,
                    weights_nbytes=binding.weights_nbytes)
            except ResilienceError as exc:
                if result is None:
                    result = {"rows": [{} for _ in batch.requests]}
                bad = result["rows"]
                if not rerun:
                    error = str(exc)
                break
            if rerun:  # the quarantine count follows the request
                for row, old in zip(fresh["rows"], result["rows"]):
                    row["quarantines"] = old["quarantines"]
            result = fresh
            rows = result["rows"]
            # Compute-domain fault injection at the output boundary: poison
            # the assembled response arrays (copies — the cache stays
            # clean, like hardware corrupting a response buffer afterwards).
            if inj is not None and inj.compute_fault("forecast"):
                inj.poison_forecast([row["forecast"] for row in rows])
            bad = []
            if self.validator is not None:
                for pending, row in zip(batch.requests, rows):
                    violations = self.validator.validate(row["forecast"])
                    if violations:
                        bad.append(row)
                        row["quarantines"] += 1
                        book_quarantine(pending.request.tier, worker.rank,
                                        violations)
            if not bad:
                break
        for row in bad:
            row["error"] = error
        return worker, end, result

    # -- the event loop ------------------------------------------------------
    def run(self, requests: Sequence[ForecastRequest],
            start_s: float = 0.0) -> list[ForecastResponse]:
        """Serve a batch of arrival-stamped requests to completion.

        Virtual time starts at ``start_s``; arrivals are admitted at their
        stamps, micro-batches dispatch whenever a worker is free, and the
        loop ends when every request is answered (completed, rejected,
        timed out, or failed)."""
        arrivals = sorted(requests, key=lambda r: r.arrival_s)
        responses: list[ForecastResponse] = []
        now = start_s
        i = 0
        while True:
            while i < len(arrivals) and arrivals[i].arrival_s <= now:
                rejected = self._admit(arrivals[i], now)
                if rejected is not None:
                    self._emit(responses, rejected, now)
                i += 1
            if not len(self.queue):
                if i >= len(arrivals):
                    break
                now = max(now, arrivals[i].arrival_s)
                continue
            free_at = self.pool.earliest_free()
            if free_at == float("inf"):
                # Capacity is gone: answer everything still queued.
                while len(self.queue):
                    pending = self.queue.pop()
                    self._emit(responses, self._unserved(
                        pending, "failed", "no live serve workers"), now)
                continue
            if free_at > now:
                if i < len(arrivals) and arrivals[i].arrival_s < free_at:
                    now = arrivals[i].arrival_s
                else:
                    now = free_at
                continue
            batch, expired = self.batcher.next_batch(now)
            for pending in expired:
                waited = pending.waited_s(now)
                self._emit(responses, self._unserved(
                    pending, "timeout",
                    str(Timeout(waited, pending.policy.deadline_s)),
                    queue_wait_s=waited), now)
            if batch is None:
                continue
            worker, end, result = self._serve_batch(now, batch)
            for pending, row in zip(batch.requests, result["rows"]):
                req = pending.request
                if "error" in row:
                    self._emit(responses, self._unserved(
                        pending, "failed", row["error"]), end)
                    continue
                if pending.variables is not None:
                    row["forecast"] = row["forecast"][..., pending.variables]
                latency = end - req.arrival_s
                self._book("completed", req.tier, version=batch.version)
                self.slo.record(req.tier, latency)
                self._emit(responses, ForecastResponse(
                    request=req, status="completed", latency_s=latency,
                    queue_wait_s=batch.assembled_s - pending.enqueued_s,
                    worker=worker.rank,
                    batch_forwards=result["forwards"],
                    batch_members=result["members"],
                    version=batch.version, **row), end)
        return responses

    def stats(self) -> dict:
        return {"tally": dict(self.tally), "cache": self.cache.stats(),
                "workers": self.pool.stats(), "slo": self.slo.summary(),
                "versions": self.versions.stats()}


def serve_check(report: TraceReport, service: ForecastService) -> dict:
    """Every request the service admitted must be answered somewhere.

    A :class:`repro.obs.TraceReport` check reconciling the service's
    request tally against the ``serve.requests`` lifecycle counter and
    against the conservation identities of the serving loop: ``submitted
    = accepted + rejected`` and ``accepted = completed + timeout +
    failed``.  A request that was admitted but never answered (lost in
    the queue, dropped by a failover) breaks the identity and fails the
    check — the serving analogue of a silent fault in
    :func:`repro.resilience.faults.resilience_check`.
    """
    counter = report.registry.counter("serve.requests")
    tally = service.tally
    per_event = {}
    for event in ("submitted", "accepted", "rejected",
                  "completed", "timeout", "failed"):
        booked = counter.total(event=event)
        per_event[event] = {"tally": tally[event], "counter": booked,
                            "match": booked == tally[event]}
    conservation = {
        "submitted_eq_accepted_plus_rejected":
            tally["submitted"] == tally["accepted"] + tally["rejected"],
        "accepted_eq_completed_plus_timeout_plus_failed":
            tally["accepted"] == (tally["completed"] + tally["timeout"]
                                  + tally["failed"]),
    }
    agrees = (all(r["match"] for r in per_event.values())
              and all(conservation.values()))
    n_spans = len(report.tracer.select(category="serve"))
    cache = service.cache.stats()
    parts = [f"{event} {r['tally']}" for event, r in per_event.items()]
    return {"check": "serve_requests", "per_event": per_event,
            "conservation": conservation, "serve_spans": n_spans,
            "cache": cache, "agrees": agrees,
            "summary": f"serve requests (tally vs counters): "
                       f"{', '.join(parts)} | cache hit rate "
                       f"{cache['hit_rate']:.2f} | {n_spans} spans | "
                       f"{'OK' if agrees else 'MISMATCH'}"}
