"""``repro.resilience`` — fault injection, self-healing, elastic recovery.

The reliability layer the paper's scale implies (10,080 Aurora nodes /
120,960 tiles — rank failures, stragglers, and corrupted messages are
routine there, as ORBIT's Frontier runs document):

* :mod:`~repro.resilience.faults` — the fault taxonomy (typed
  exceptions), :class:`FaultPlan` (seeded schedule of fail-stops, bit
  flips, drops, stragglers) and :class:`FaultInjector` (applies the plan
  to the simulated cluster's transfers);
* :mod:`~repro.resilience.atomic` — crash-safe file writes (temp +
  fsync + rename), shared by checkpoints and every
  :mod:`repro.obs` exporter;
* :mod:`~repro.resilience.checksum` — per-message / per-array CRC32
  binding dtype + shape, used by the self-healing collectives and the
  checkpoint manifest;
* :mod:`~repro.resilience.retry` — ``MAX_RETRIES`` and ``backoff_s``:
  bounded exponential backoff for transient faults (metered, not slept);
* :mod:`~repro.resilience.supervisor` — :class:`ElasticSupervisor`: runs
  SWiPe training under a fault plan, autosaves atomic sharded
  checkpoints, and on :class:`RankFailure` re-grids onto the surviving
  ranks and resumes from the last valid checkpoint.

Every injected fault, detection, retry, and recovery is booked through
:mod:`repro.obs`, and the :class:`repro.obs.TraceReport` checks
:func:`resilience_check` / :func:`sdc_check` reconcile the injector's
tally against the observations.

The supervisor is imported lazily (PEP 562): the low-level comm layer
imports this package for the taxonomy/checksums, while the supervisor
sits *above* :mod:`repro.parallel` — lazy loading keeps that layering
acyclic.
"""

from .atomic import atomic_write
from .checksum import content_digest, payload_checksum, state_digest
from .faults import (BitFlip, ClusterFailure, CommTimeout, ComputeCorruption,
                     ComputeFault, Drop, FailStop, FaultInjector, FaultPlan,
                     MessageCorruption, RankFailure, ResilienceError,
                     Straggle, compute_injector, inject_compute,
                     resilience_check, sdc_check)

_SUPERVISOR_EXPORTS = ("ElasticSupervisor", "SupervisorConfig")
#: Checkpoint-scrub exports live above repro.train, so they are lazy too.
_SCRUB_EXPORTS = ("ScrubFinding", "ScrubReport", "scrub_checkpoint",
                  "scrub_checkpoints")

__all__ = [
    "atomic_write",
    "payload_checksum", "content_digest", "state_digest",
    "ResilienceError", "RankFailure", "MessageCorruption", "CommTimeout",
    "ClusterFailure", "ComputeCorruption",
    "FailStop", "BitFlip", "Drop", "Straggle", "ComputeFault",
    "FaultPlan", "FaultInjector",
    "inject_compute", "compute_injector",
    "resilience_check", "sdc_check",
    *_SUPERVISOR_EXPORTS,
    *_SCRUB_EXPORTS,
]


def __getattr__(name: str):
    if name in _SUPERVISOR_EXPORTS or name == "supervisor":
        import importlib
        module = importlib.import_module(".supervisor", __name__)
        return module if name == "supervisor" else getattr(module, name)
    if name in _SCRUB_EXPORTS or name == "scrub":
        import importlib
        module = importlib.import_module(".scrub", __name__)
        return module if name == "scrub" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
