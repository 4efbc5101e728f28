"""The SDC guard around one training step (``TrainerConfig(guarded=True)``).

:class:`StepGuard` retains the trainer's complete loop state
(:meth:`Trainer.state_payload`) at every clean step boundary, audits the
live state against it, and rolls back and recomputes on detection.  A
fault-free guarded run is bit-exact with an unguarded one (the guard only
reads and copies), and a recovered run is bit-exact with a never-faulted
one (the payload carries the generator states, so the retry replays the
identical step).
"""

from __future__ import annotations

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..resilience.checksum import payload_checksum
from ..resilience.faults import (ComputeCorruption, count_sdc_detected,
                                 inject_compute)

__all__ = ["StepGuard", "NonFiniteLoss"]


class NonFiniteLoss(Exception):
    """A guarded step produced a non-finite loss with retries remaining —
    rolled back and recomputed (an SDC that slipped past the ABFT net can
    poison the loss; a *deterministic* divergence reproduces on retry and
    then falls through to the classic skip/LR-backoff)."""


class StepGuard:
    """The retained micro-state of one :class:`Trainer` and the
    rollback/recompute loop around its step."""

    def __init__(self, trainer):
        self.trainer = trainer
        #: ``(shards, extra, crcs)`` of the last clean step boundary;
        #: ``None`` (also after :meth:`Trainer.restore`) = retain afresh.
        self.retained: tuple[dict, dict, dict] | None = None

    def run(self, step_fn) -> float:
        """One step with rollback/recompute on detected corruption.

        Ordering: retain a clean micro-state (first step only — later
        steps refresh it on success), let the injector deal any scheduled
        state faults, then loop: CRC-audit the live state, run
        ``step_fn(allow_retry=...)`` under the compute-fault scope, and on
        detection roll back and retry.  Exhausted retries escalate as
        :class:`~repro.resilience.ComputeCorruption` for the supervisor.
        """
        trainer = self.trainer
        inj = trainer.injector
        max_retries = trainer.config.max_step_retries
        step = len(trainer.history)
        if self.retained is None:
            self._retain()
        if inj is not None:
            inj.advance(step)
            for site in inj.state_faults():
                inj.corrupt_state(self._live()[site], site)
        last: Exception | None = None
        for attempt in range(max_retries + 1):
            try:
                self._audit(step)
                with inject_compute(inj):
                    value = step_fn(allow_retry=attempt < max_retries)
            except (ComputeCorruption, NonFiniteLoss) as exc:
                self._rollback(step, attempt, exc)
                last = exc
                continue
            self._retain()
            return value
        _count("train.guard_escalations",
               "steps still corrupt after bounded retries")
        _record_event("train.guard_escalation", subsystem="train",
                      severity="critical", step=step,
                      retries=max_retries, detail=str(last))
        site = last.site if isinstance(last, ComputeCorruption) else "loss"
        raise ComputeCorruption(
            site, f"step {step} still corrupt after "
                  f"{max_retries} rollback retries ({last})")

    def _live(self) -> dict[str, list[np.ndarray]]:
        """The live arrays of each auditable section, in the order the
        injector deals state faults into them."""
        optimizer = self.trainer.optimizer
        return {"weight": [p.data for p in self.trainer.model.parameters()],
                "optimizer": optimizer.exp_avg + optimizer.exp_avg_sq}

    def _crcs(self) -> dict[str, list[int]]:
        return {site: [payload_checksum(a) for a in arrays]
                for site, arrays in self._live().items()}

    def _retain(self) -> None:
        """Snapshot a *clean* step boundary: one copy of every payload
        array, plus each section's CRCs."""
        shards, extra = self.trainer.state_payload()
        self.retained = (
            {section: {name: a.copy() for name, a in arrays.items()}
             for section, arrays in shards.items()}, extra, self._crcs())

    def _audit(self, step: int) -> None:
        """CRC the live weight/optimizer shards against the retained
        clean state — catches at-rest corruption before it is trained
        into the trajectory.  Both sections are audited (and each
        corrupted one booked as detected) before raising: a single
        rollback heals weight *and* optimizer corruption together, so
        stopping at the first mismatch would leave the second section's
        corruption healed-but-never-counted."""
        corrupted = [site for site, crcs in self._crcs().items()
                     if crcs != self.retained[2][site]]
        for site in corrupted:
            count_sdc_detected(site)
            _record_event("compute.sdc_detected", subsystem="train",
                          severity="critical", site=site, step=step)
            with _span("resilience.sdc", category="resilience", site=site,
                       step=step):
                pass
        if corrupted:
            raise ComputeCorruption(
                corrupted[0],
                f"state checksum mismatch in {' and '.join(corrupted)} "
                f"section at step {step}", sites=corrupted)

    def _rollback(self, step: int, attempt: int, exc: Exception) -> None:
        """Restore the retained micro-state (weights, moments, EMA,
        counters, generator states) so the retry replays the identical
        step from clean inputs."""
        retained = self.retained
        self.trainer.restore(retained[0], retained[1])
        self.retained = retained  # restore() dropped it; it is live again
        self.trainer.step_retries += 1
        cause = exc.site if isinstance(exc, ComputeCorruption) \
            else "nonfinite"
        # one increment per *closed detection*, not per rollback: a
        # single state audit can implicate several sites, and this one
        # rollback heals them all (sdc_check reconciles retries against
        # detections 1:1)
        for site in (exc.sites if isinstance(exc, ComputeCorruption)
                     else (cause,)):
            _count("train.step_retries", "steps rolled back and recomputed",
                   1, cause=site)
        _record_event("train.step_rollback", subsystem="train",
                      severity="warning", step=step, attempt=attempt,
                      cause=cause, detail=str(exc))
        with _span("resilience.rollback", category="resilience", step=step,
                   cause=cause):
            pass
