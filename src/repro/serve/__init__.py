"""``repro.serve`` — the forecast-serving subsystem.

The production-shaped inference tier the ROADMAP's "heavy traffic from
millions of users" north star implies, in front of the trained AERIS
model (operational peers like Aurora are fronted by exactly such a
service; the *Exascale Climate Emulators* line of work shows caching
forecasts — not recomputing them — is what makes serving tractable):

* :mod:`~repro.serve.api` — typed :class:`ForecastRequest` /
  :class:`ForecastResponse` plus the :class:`Rejected` / :class:`Timeout`
  error taxonomy;
* :mod:`~repro.serve.queue` — priority admission queue with global and
  per-tier depth caps (backpressure) and per-tier deadlines;
* :mod:`~repro.serve.batcher` — dynamic micro-batching: compatible
  requests and their ensemble members coalesce into single stacked
  model forwards, and :func:`execute_batch` runs an assembled batch
  (cache prefix restore, lock-step stepping, cache fill);
* :mod:`~repro.serve.cache` — content-addressed forecast cache keyed by
  ``(weights digest, init-state digest, member seed, solver config,
  lead)`` with LRU eviction under a byte budget;
* :mod:`~repro.serve.samplers` — quality tiers mapped onto the paper's
  inference paths (``fast``: one-step consistency student;
  ``standard``/``high``: DPM-Solver 2S at increasing step counts), a
  deterministic router, and per-tier SLO tracking;
* :mod:`~repro.serve.worker` — :class:`ServeWorkerPool`: N replica
  workers under the :mod:`repro.resilience` fault machinery (fail-stop
  degrades capacity; transient faults heal);
* :mod:`~repro.serve.guardrails` — :class:`ForecastValidator`: physical
  per-variable bounds (from archive statistics) + finiteness checks —
  the output-domain silent-data-corruption defense (quarantine, re-run
  on a different worker, alert);
* :mod:`~repro.serve.versions` — :class:`VersionTable`: every loaded
  model version is a :class:`ModelBinding`, and a request is pinned to
  one at admission;
* :mod:`~repro.serve.service` — :class:`ForecastService`: the
  discrete-event serving loop gluing it all together;
* :mod:`~repro.serve.deploy` — :class:`DeploymentController`: canary
  rollout of a registry-gated candidate version (hash-routed traffic
  split, shadow skill checks, auto-promote / auto-rollback), reconciled
  end-to-end by :func:`deploy_check`.

Every stage is instrumented through :mod:`repro.obs`, and the
:class:`repro.obs.TraceReport` check :func:`serve_check` reconciles the
request lifecycle (accepted = completed + timed out + failed) against
the metrics the way ``resilience_check`` reconciles faults.
"""

from .api import (TIERS, ForecastRequest, ForecastResponse, Rejected,
                  ServeError, Timeout)
from .batcher import (BatcherConfig, MemberTask, MicroBatch, MicroBatcher,
                      execute_batch)
from .cache import (CacheEntry, ForecastCache, array_digest, forecast_key,
                    solver_digest, weights_digest)
from .deploy import DeployConfig, DeploymentController, deploy_check
from .guardrails import BoundViolation, ForecastValidator
from .queue import AdmissionQueue, PendingRequest
from .samplers import (OneStepForecaster, SloTracker, TierPolicy,
                       TierRouter, default_tiers)
from .service import ForecastService, ServiceConfig, serve_check
from .versions import ModelBinding, VersionTable
from .worker import ServeWorkerPool, WorkerState

__all__ = [
    "TIERS", "ForecastRequest", "ForecastResponse",
    "ServeError", "Rejected", "Timeout",
    "AdmissionQueue", "PendingRequest",
    "BatcherConfig", "MicroBatcher", "MicroBatch", "MemberTask",
    "execute_batch",
    "ForecastCache", "CacheEntry",
    "array_digest", "weights_digest", "solver_digest", "forecast_key",
    "TierPolicy", "TierRouter", "SloTracker", "OneStepForecaster",
    "default_tiers",
    "ServeWorkerPool", "WorkerState",
    "ForecastValidator", "BoundViolation",
    "ForecastService", "ServiceConfig", "serve_check",
    "ModelBinding", "VersionTable",
    "DeployConfig", "DeploymentController", "deploy_check",
]
