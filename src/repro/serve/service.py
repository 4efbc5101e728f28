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
      → cache restore (longest content-addressed prefix per member)
      → tier sampler (fast: consistency student; standard/high: DPM 2S)
      → cache fill + response assembly

For a fixed seed the served forecast is **bit-identical** to a direct
:meth:`ResidualForecaster.ensemble_rollout` at the same tier — batching
is per-row exact and cache entries are exact copies — which is asserted
end-to-end by ``tests/serve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Sequence

import numpy as np

from ..diffusion import ResidualForecaster
from ..obs.profile import metrics as _obs_metrics
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..resilience import ResilienceError, RetryPolicy
from .api import ForecastRequest, ForecastResponse, Rejected, Timeout
from .batcher import BatcherConfig, MemberTask, MicroBatch, MicroBatcher
from .cache import ForecastCache, array_digest, forecast_key, \
    solver_digest, weights_digest
from .queue import AdmissionQueue, PendingRequest, QueueConfig
from .samplers import OneStepForecaster, SloTracker, TierRouter
from .worker import ServeWorkerPool

__all__ = ["ServiceConfig", "ModelBinding", "ForecastService",
           "serve_check"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (tier policies live on the router)."""

    n_workers: int = 1
    cache_bytes: int = 64 << 20
    queue: QueueConfig = field(default_factory=QueueConfig)
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    #: Re-dispatches a quarantined batch may attempt (on a *different*
    #: worker) before its still-invalid requests fail.
    guardrail_reruns: int = 1


@dataclass(eq=False)
class ModelBinding:
    """One servable model version: per-tier steppers + content digests.

    The binding is what a request is routed *to*: ``steppers[tier]`` runs
    the forecast, ``digests[tier]`` namespaces its cache entries, and
    ``weights_digest`` is the version's identity — the same SHA-256 the
    registry records, so "which weights are live" is answerable by digest
    comparison alone (:func:`~repro.serve.deploy.deploy_check` relies on
    this to prove a rollback restored the incumbent exactly).
    """

    version: str
    steppers: dict[str, object]
    digests: dict[str, tuple[str, str]]
    weights_digest: str
    weights_nbytes: int
    field_shape: tuple | None


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
    variable_names:
        Channel names of the state vector, enabling per-request variable
        subsetting (e.g. ``repro.data.TOY_SET.names``).
    cluster / injector / retry:
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
        batch is quarantined, re-run on a different worker (bounded by
        ``ServiceConfig.guardrail_reruns``), and fails only if still
        absurd.
    """

    def __init__(self, forecaster: ResidualForecaster, student=None,
                 config: ServiceConfig | None = None,
                 router: TierRouter | None = None,
                 variable_names: Sequence[str] | None = None,
                 cluster=None, injector=None,
                 retry: RetryPolicy | None = None,
                 validator=None, version: str = "v0",
                 plan=None, machine=None, duration_fn=None):
        self.config = config if config is not None else ServiceConfig()
        self.router = router if router is not None else TierRouter()
        self.base = forecaster
        self.validator = validator
        self.variable_names = (list(variable_names)
                               if variable_names is not None else None)
        self.cache = ForecastCache(self.config.cache_bytes)
        self.queue = AdmissionQueue(self.router, self.config.queue)
        self.batcher = MicroBatcher(self.queue, self.config.batcher)
        if plan is not None:
            # A tuned plan overrides n_workers: pack as many replicas as
            # its memory estimate says fit on one node of ``machine``.
            if machine is None:
                from ..perf.machine import AURORA
                machine = AURORA
            self.pool = ServeWorkerPool.from_plan(
                plan, machine, cluster=cluster, injector=injector,
                retry=retry, duration_fn=duration_fn)
        else:
            self.pool = ServeWorkerPool(self.config.n_workers,
                                        cluster=cluster, injector=injector,
                                        retry=retry,
                                        duration_fn=duration_fn)
        self.slo = SloTracker(self.router.policies)
        # Model versions.  Every loaded version gets a ModelBinding;
        # requests are pinned to a version at admission (by the optional
        # version_router, else the active version) and a micro-batch
        # never mixes versions.
        self.bindings: dict[str, ModelBinding] = {}
        self.active_version = version
        #: Optional ``request -> version`` override (canary routing).
        self.version_router = None
        #: Optional ``(response, now) -> None`` tap, called for every
        #: response the event loop emits (the deployment controller's
        #: online observation point).
        self.response_hook = None
        self.bindings[version] = self._build_binding(version, forecaster,
                                                     student)
        self.tally = {"submitted": 0, "accepted": 0, "rejected": 0,
                      "completed": 0, "timeout": 0, "failed": 0}

    # -- model versions ------------------------------------------------------
    def _build_binding(self, version: str,
                       forecaster: ResidualForecaster,
                       student=None) -> ModelBinding:
        """Per-tier steppers + content digests for one model version.
        A tier whose model is missing (no student) simply isn't served
        by this version."""
        base_digest = weights_digest(forecaster.model)
        steppers: dict[str, object] = {}
        digests: dict[str, tuple[str, str]] = {}
        for name, policy in self.router.policies.items():
            if policy.solver_config is None:
                if student is None:
                    continue
                steppers[name] = OneStepForecaster(
                    model=student, state_norm=forecaster.state_norm,
                    residual_norm=forecaster.residual_norm,
                    forcing_fn=forecaster.forcing_fn,
                    forcing_norm=forecaster.forcing_norm,
                    flow=forecaster.flow)
                digests[name] = (weights_digest(student),
                                 solver_digest(None))
            else:
                steppers[name] = _dc_replace(
                    forecaster, solver_config=policy.solver_config)
                digests[name] = (base_digest,
                                 solver_digest(policy.solver_config))
        cfg = getattr(forecaster.model, "config", None)
        field_shape = ((cfg.height, cfg.width, cfg.channels)
                       if cfg is not None else None)
        nbytes = sum(int(np.asarray(a).nbytes)
                     for a in forecaster.model.state_dict().values())
        return ModelBinding(version=version, steppers=steppers,
                            digests=digests, weights_digest=base_digest,
                            weights_nbytes=nbytes, field_shape=field_shape)

    def add_version(self, version: str, forecaster: ResidualForecaster,
                    student=None) -> ModelBinding:
        """Load an additional servable version (does not shift traffic —
        routing is the ``version_router``'s / ``set_active``'s job)."""
        if version in self.bindings:
            raise ValueError(f"version {version!r} already loaded")
        binding = self._build_binding(version, forecaster, student)
        active = self.bindings[self.active_version]
        if (binding.field_shape is not None
                and active.field_shape is not None
                and binding.field_shape != active.field_shape):
            raise ValueError(
                f"version {version!r} field shape {binding.field_shape} "
                f"differs from active {active.field_shape}")
        self.bindings[version] = binding
        registry = _obs_metrics()
        if registry is not None:
            registry.gauge("serve.loaded_versions",
                           "model versions loaded").set(len(self.bindings))
        _record_event("serve.version_loaded", subsystem="serve",
                      version=version,
                      weights=binding.weights_digest[:12])
        return binding

    def set_active(self, version: str) -> None:
        """Make ``version`` the default target for new admissions."""
        if version not in self.bindings:
            raise ValueError(f"version {version!r} not loaded")
        previous, self.active_version = self.active_version, version
        _record_event("serve.version_activated", subsystem="serve",
                      version=version, previous=previous)

    def remove_version(self, version: str) -> int:
        """Unload a version; queued requests pinned to it are re-routed
        to the active version (returned count) — no request is lost."""
        if version == self.active_version:
            raise ValueError("cannot remove the active version")
        if version not in self.bindings:
            raise ValueError(f"version {version!r} not loaded")
        del self.bindings[version]
        moved = self.queue.reassign_version(version, self.active_version)
        registry = _obs_metrics()
        if registry is not None:
            registry.gauge("serve.loaded_versions",
                           "model versions loaded").set(len(self.bindings))
            if moved:
                registry.counter(
                    "serve.requests_reassigned",
                    "queued requests re-routed off an unloaded "
                    "version").inc(moved, src=version,
                                   dst=self.active_version)
        _record_event("serve.version_unloaded", subsystem="serve",
                      version=version, reassigned=moved)
        return moved

    def stepper(self, tier: str, version: str | None = None):
        """The stepper serving ``tier`` for ``version`` (default active).
        Useful for comparing served output against a direct rollout —
        they are bit-identical for the same seed."""
        binding = self.bindings[version if version is not None
                                else self.active_version]
        return binding.steppers[tier]

    def _route_version(self, request: ForecastRequest) -> str:
        version = self.active_version
        if self.version_router is not None:
            version = self.version_router(request)
        if version not in self.bindings:
            raise Rejected("version_unavailable",
                           f"version {version!r} not loaded")
        return version

    # -- accounting ----------------------------------------------------------
    def _count(self, event: str, tier: str, **labels) -> None:
        self.tally[event] += 1
        registry = _obs_metrics()
        if registry is not None:
            registry.counter("serve.requests",
                             "request lifecycle events").inc(
                1, event=event, tier=tier, **labels)
        _record_event(f"serve.{event}", subsystem="serve",
                      severity=("warning" if event in ("rejected",
                                                       "timeout", "failed")
                                else "info"), tier=tier, **labels)

    # -- admission -----------------------------------------------------------
    def _variable_indices(self, request: ForecastRequest) -> list[int] | None:
        if request.variables is None:
            return None
        if self.variable_names is None:
            raise Rejected("unknown_variable",
                           "service has no variable names configured")
        try:
            return [self.variable_names.index(v) for v in request.variables]
        except ValueError as exc:
            raise Rejected("unknown_variable", str(exc)) from None

    def _admit(self, request: ForecastRequest,
               now: float) -> ForecastResponse | None:
        """Queue the request; a rejection becomes an immediate response."""
        self._count("submitted", request.tier)
        try:
            version = self._route_version(request)
            binding = self.bindings[version]
            if request.tier not in binding.steppers:
                raise Rejected("tier_unavailable",
                               f"tier {request.tier!r} has no model in "
                               f"version {version!r}")
            if (binding.field_shape is not None
                    and tuple(request.init_state.shape)
                    != binding.field_shape):
                raise Rejected("bad_shape",
                               f"want {binding.field_shape}, got "
                               f"{tuple(request.init_state.shape)}")
            self._variable_indices(request)
            self.queue.submit(request, now, version=version)
        except Rejected as exc:
            self._count("rejected", request.tier, reason=exc.reason)
            return ForecastResponse(request=request, status="rejected",
                                    error=str(exc))
        self._count("accepted", request.tier, version=version)
        return None

    # -- responses -----------------------------------------------------------
    def _timeout_response(self, pending: PendingRequest,
                          now: float) -> ForecastResponse:
        err = Timeout(pending.waited_s(now), pending.policy.deadline_s)
        self._count("timeout", pending.request.tier,
                    version=pending.version)
        return ForecastResponse(request=pending.request, status="timeout",
                                error=str(err),
                                queue_wait_s=pending.waited_s(now),
                                version=pending.version)

    def _failed_response(self, pending: PendingRequest,
                         error: str) -> ForecastResponse:
        self._count("failed", pending.request.tier,
                    version=pending.version)
        return ForecastResponse(request=pending.request, status="failed",
                                error=error, version=pending.version)

    def _emit(self, responses: list, response: ForecastResponse,
              now: float) -> None:
        """Append a response and fire the observation hook.  The hook
        runs between event-loop steps, so a deployment controller may
        swap routing / bindings here without racing an in-flight batch."""
        responses.append(response)
        if self.response_hook is not None:
            self.response_hook(response, now)

    # -- cache interaction ---------------------------------------------------
    def _restore_prefix(self, task: MemberTask, weights: str,
                        solver: str) -> None:
        """Walk the content-addressed prefix forward while cached, leaving
        the task's state/rng/trajectory positioned at the longest hit."""
        req = task.pending.request
        task.init_digest = array_digest(task.state)
        last = None
        while task.lead < task.target:
            key = forecast_key(weights, task.init_digest, task.member_seed,
                               solver, req.start_index, task.lead + 1)
            entry = self.cache.get(key)
            if entry is None:
                task.cache_misses += 1
                break
            task.trajectory.append(entry.state)
            task.lead += 1
            task.cache_hits += 1
            last = entry
        if last is not None:
            task.state = last.state
            task.rng.bit_generator.state = last.rng_state

    # -- batch execution -----------------------------------------------------
    def _dispatch(self, now: float, batch: MicroBatch,
                  payload: np.ndarray, exclude: int | None = None):
        """Dispatch a batch to the pool under its version's weights (the
        pool hot-swaps the worker if it holds a different version)."""
        binding = self.bindings[batch.version]
        return self.pool.dispatch(
            now, lambda: self._execute(batch), payload=payload,
            exclude=exclude, version=batch.version,
            weights_nbytes=binding.weights_nbytes)

    def _execute(self, batch: MicroBatch) -> dict:
        """Run one micro-batch to completion: restore cached prefixes,
        advance every unfinished member through stacked forwards, cache
        each new step.  Returns per-pending results."""
        policy = batch.policy
        binding = self.bindings[batch.version]
        stepper = binding.steppers[policy.name]
        weights, solver = binding.digests[policy.name]
        tasks = MicroBatcher.member_tasks(batch)
        with _span("serve.cache", category="serve", tier=policy.name,
                   members=len(tasks)):
            for task in tasks:
                self._restore_prefix(task, weights, solver)
        forwards = 0
        while True:
            active = [t for t in tasks if not t.done]
            if not active:
                break
            states = np.stack([t.state for t in active])
            indices = [t.time_index() for t in active]
            rngs = [t.rng for t in active]
            new_states = stepper.step_members(states, indices, rngs)
            forwards += policy.forwards_per_data_step()
            for k, task in enumerate(active):
                task.state = new_states[k]
                task.lead += 1
                task.trajectory.append(task.state)
                key = forecast_key(weights, task.init_digest,
                                   task.member_seed, solver,
                                   task.pending.request.start_index,
                                   task.lead)
                self.cache.put(key, task.state,
                               task.rng.bit_generator.state)
        # Assemble per-request forecasts.
        by_pending: dict[int, list[MemberTask]] = {}
        for task in tasks:
            by_pending.setdefault(id(task.pending), []).append(task)
        results = {}
        for pending in batch.requests:
            members = by_pending[id(pending)]
            members.sort(key=lambda t: t.member)
            forecast = np.stack([np.stack(t.trajectory) for t in members])
            results[id(pending)] = {
                "forecast": forecast.astype(np.float32, copy=False),
                "cache_hits": sum(t.cache_hits for t in members),
                "cache_misses": sum(t.cache_misses for t in members),
            }
        return {"per_request": results, "forwards": forwards,
                "members": len(tasks)}

    def _subset(self, request: ForecastRequest,
                forecast: np.ndarray) -> np.ndarray:
        indices = self._variable_indices(request)
        return forecast if indices is None else forecast[..., indices]

    # -- physical guardrails -------------------------------------------------
    def _poison_result(self, batch: MicroBatch, result: dict) -> None:
        """Compute-domain fault injection at the output boundary: when the
        injector fires a ``forecast`` fault for this dispatch, poison the
        assembled response arrays (copies — the cache stays clean, exactly
        like hardware corrupting a response buffer after the fact)."""
        inj = self.pool.injector
        if inj is not None and inj.compute_fault("forecast"):
            inj.poison_forecast([result["per_request"][id(p)]["forecast"]
                                 for p in batch.requests])

    def _record_quarantine(self, pending: PendingRequest, violations,
                           worker_rank: int) -> None:
        tier = pending.request.tier
        registry = _obs_metrics()
        if registry is not None:
            registry.counter("serve.forecasts_quarantined",
                             "forecasts failing physical guardrails").inc(
                1, tier=tier)
        _record_event("serve.forecast_quarantined", subsystem="serve",
                      severity="critical", tier=tier, worker=worker_rank,
                      violations="; ".join(v.render()
                                           for v in violations[:4]))
        with _span("resilience.forecast_sdc", category="resilience",
                   tier=tier, worker=worker_rank):
            pass

    def _guard_result(self, batch: MicroBatch, payload: np.ndarray,
                      worker, end: float, result: dict
                      ) -> tuple[object, float, dict, dict, set]:
        """Validate every per-request forecast against the physical
        guardrails; quarantine + re-dispatch on a different worker while
        re-runs remain.  Returns ``(worker, end, result, quarantine_counts,
        failed_ids)`` — requests in ``failed_ids`` were still invalid after
        the last permitted re-run."""
        self._poison_result(batch, result)
        if self.validator is None:
            return worker, end, result, {}, set()
        qcounts: dict[int, int] = {}
        reruns = 0
        while True:
            bad = []
            for pending in batch.requests:
                per = result["per_request"][id(pending)]
                violations = self.validator.validate(per["forecast"])
                if violations:
                    bad.append(pending)
                    qcounts[id(pending)] = qcounts.get(id(pending), 0) + 1
                    self._record_quarantine(pending, violations, worker.rank)
            if not bad:
                return worker, end, result, qcounts, set()
            if reruns >= self.config.guardrail_reruns:
                return worker, end, result, qcounts, {id(p) for p in bad}
            reruns += 1
            registry = _obs_metrics()
            if registry is not None:
                registry.counter("serve.guardrail_reruns",
                                 "quarantined batches re-dispatched").inc(
                    1, tier=batch.policy.name)
            _record_event("serve.guardrail_rerun", subsystem="serve",
                          severity="warning", tier=batch.policy.name,
                          excluded_worker=worker.rank,
                          quarantined=len(bad))
            try:
                worker, end, result = self._dispatch(
                    end, batch, payload, exclude=worker.rank)
            except ResilienceError:
                return worker, end, result, qcounts, \
                    {id(p) for p in batch.requests}
            self._poison_result(batch, result)

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
                    self._emit(responses, self._failed_response(
                        pending, "no live serve workers"), now)
                continue
            if free_at > now:
                if i < len(arrivals) and arrivals[i].arrival_s < free_at:
                    now = arrivals[i].arrival_s
                else:
                    now = free_at
                continue
            batch, expired = self.batcher.next_batch(now)
            for pending in expired:
                self._emit(responses, self._timeout_response(pending, now),
                           now)
            if batch is None:
                continue
            payload = np.stack([np.asarray(p.request.init_state,
                                           dtype=np.float32)
                                for p in batch.requests
                                for _ in range(p.request.n_members)])
            try:
                worker, end, result = self._dispatch(now, batch, payload)
            except ResilienceError as exc:
                for pending in batch.requests:
                    self._emit(responses,
                               self._failed_response(pending, str(exc)),
                               now)
                continue
            worker, end, result, qcounts, failed_ids = self._guard_result(
                batch, payload, worker, end, result)
            for pending in batch.requests:
                req = pending.request
                if id(pending) in failed_ids:
                    self._emit(responses, self._failed_response(
                        pending, "forecast failed physical guardrails"),
                        end)
                    continue
                per = result["per_request"][id(pending)]
                latency = end - req.arrival_s
                self._count("completed", req.tier, version=batch.version)
                self.slo.record(req.tier, latency)
                self._emit(responses, ForecastResponse(
                    request=req, status="completed",
                    forecast=self._subset(req, per["forecast"]),
                    latency_s=latency,
                    queue_wait_s=batch.assembled_s - pending.enqueued_s,
                    worker=worker.rank,
                    batch_forwards=result["forwards"],
                    batch_members=result["members"],
                    cache_hits=per["cache_hits"],
                    cache_misses=per["cache_misses"],
                    quarantines=qcounts.get(id(pending), 0),
                    version=batch.version), end)
        return responses

    def serve(self, request: ForecastRequest) -> ForecastResponse:
        """Synchronous single-request convenience."""
        return self.run([request], start_s=request.arrival_s)[0]

    def stats(self) -> dict:
        return {"tally": dict(self.tally), "cache": self.cache.stats(),
                "workers": self.pool.stats(), "slo": self.slo.summary(),
                "versions": {
                    "active": self.active_version,
                    "loaded": {v: b.weights_digest[:12]
                               for v, b in self.bindings.items()}}}


def serve_check(report, service: ForecastService) -> dict:
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
