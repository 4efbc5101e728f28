"""Seeded fault injection: the fault taxonomy, the schedule, the injector.

The fault model covers the failure classes a 10,080-node AERIS run (and
ORBIT's Frontier runs before it) actually meets:

* **fail-stop** — a rank dies at a scheduled step and never comes back;
  every collective touching it raises :class:`RankFailure` (permanent —
  the supervisor must re-grid, see :mod:`repro.resilience.supervisor`);
* **bit flip** — a message payload is corrupted in flight; the per-message
  checksum (:mod:`repro.resilience.checksum`) detects it and the cluster
  re-sends (transient — healed by retry, surfaces as
  :class:`MessageCorruption` only when retries are exhausted);
* **drop** — a message never arrives; the simulated timeout fires and the
  cluster re-sends (transient — :class:`CommTimeout` when exhausted);
* **straggler** — a link delivers late; no data is lost, but the delay is
  metered so chaos runs expose tail-latency behaviour;
* **compute-domain SDC** — a bit flips *at rest or in flight through the
  ALU*, not on the wire: a GEMM output element (:class:`ComputeFault`
  site ``"gemm"``, detected by the ABFT checksums in
  :mod:`repro.kernels.abft`), a weight or optimizer shard (sites
  ``"weight"`` / ``"optimizer"``, detected by the guarded trainer's state
  audit), or a served forecast (site ``"forecast"``, caught by the
  physical guardrails in :mod:`repro.serve.guardrails`).  All surface as
  :class:`ComputeCorruption` and are healed by step rollback / re-serve.

Faults come from a :class:`FaultPlan`: an explicit list of scheduled
events (deterministic — "the first allreduce transfer of step 3 is
corrupted") plus optional seeded background rates (statistical chaos).
Both are driven by one :class:`numpy` generator seeded from the plan, so
a chaos run is exactly reproducible from ``(plan, workload)``.

The injector addresses ranks in the *current* grid.  After an elastic
recovery the surviving ranks are renumbered, so the supervisor calls
:meth:`FaultInjector.reset_grid` to retire consumed fail-stop events and
clear the dead set.
"""

from __future__ import annotations

from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ..obs.health import FAULT_CLASSES
from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..obs.report import TraceReport
from ..scoped import scoped

__all__ = [
    "ResilienceError", "RankFailure", "MessageCorruption", "CommTimeout",
    "ClusterFailure", "ComputeCorruption",
    "FailStop", "BitFlip", "Drop", "Straggle", "ComputeFault",
    "FaultPlan", "FaultInjector",
    "inject_compute", "compute_injector",
    "SDC_SITE_KINDS", "resilience_check", "sdc_check",
]

#: Injection/reconciliation kind per compute-fault site: the injector
#: tallies these in ``injected`` and :func:`sdc_check` matches them
#: against the detections each defense layer booked.
SDC_SITE_KINDS = {
    "gemm": "sdc_gemm",
    "weight": "sdc_weight",
    "optimizer": "sdc_opt",
    "forecast": "sdc_forecast",
}


#: Late-delivery delay of a background (``p_straggle``) straggler.
STRAGGLE_DELAY_S = 0.02


# Detections booked by more than one layer are written here, once, so
# the metric's help text does not depend on which layer booked first.
def count_sdc_detected(site: str) -> None:
    """One detection by the ABFT checksums or the guarded step's audit."""
    _count("resilience.sdc_detected", "compute-domain corruptions caught",
           1, kind=SDC_SITE_KINDS[site])


def count_dead_ranks(n: int, **labels) -> None:
    """``n`` fail-stopped ranks handled (supervisor re-grid, serve
    failover)."""
    _count("resilience.dead_ranks", "ranks lost to fail-stop", n, **labels)


# -- taxonomy of typed failures ------------------------------------------------
class ResilienceError(RuntimeError):
    """Base class for all injected-fault escalations."""


class RankFailure(ResilienceError):
    """A collective touched a dead rank (fail-stop; permanent)."""

    def __init__(self, rank: int, primitive: str | None = None):
        self.rank = rank
        self.primitive = primitive
        detail = f" (detected in {primitive})" if primitive else ""
        super().__init__(f"rank {rank} is dead{detail}")


class MessageCorruption(ResilienceError):
    """A payload kept failing checksum verification after all retries."""


class CommTimeout(ResilienceError):
    """A message kept getting dropped after all retries."""


class ClusterFailure(ResilienceError):
    """No viable degraded topology / restart budget exhausted."""


class ComputeCorruption(ResilienceError):
    """Silent data corruption detected in the compute domain.

    Raised by the ABFT-guarded kernels (a GEMM output failed its
    row/column checksum), by the guarded trainer's state audit (a weight
    or optimizer shard changed outside an optimizer step), or by the
    guarded trainer when bounded step retries are exhausted.  ``site``
    names where the corruption was localized (``"gemm"``, ``"weight"``,
    ``"optimizer"``, ``"forecast"``) and ``detail`` carries the
    localization (kernel label, column index, parameter section, ...).
    """

    def __init__(self, site: str, detail: str = "", sites=None):
        self.site = site
        #: Every site implicated in this detection; a single state audit
        #: can catch weight *and* optimizer corruption at once, and the
        #: one rollback that follows closes all of them.
        self.sites = tuple(sites) if sites else (site,)
        self.detail = detail
        suffix = f": {detail}" if detail else ""
        super().__init__(f"compute corruption in {site}{suffix}")


# -- scheduled fault events ----------------------------------------------------
@dataclass(frozen=True)
class FailStop:
    """Rank ``rank`` dies permanently at the start of step ``step``."""

    rank: int
    step: int = 0


@dataclass(frozen=True)
class BitFlip:
    """Corrupt the ``nth`` transfer of ``primitive`` ("*" = any) at
    ``step`` — detected by checksum, healed by retry."""

    step: int = 0
    primitive: str = "*"
    nth: int = 0


@dataclass(frozen=True)
class Drop:
    """Drop the ``nth`` transfer of ``primitive`` at ``step`` — the
    simulated timeout fires and the message is re-sent."""

    step: int = 0
    primitive: str = "*"
    nth: int = 0


@dataclass(frozen=True)
class Straggle:
    """Deliver the ``nth`` transfer of ``primitive`` at ``step`` late by
    ``delay_s`` simulated seconds (no data loss)."""

    step: int = 0
    primitive: str = "*"
    nth: int = 0
    delay_s: float = 0.05


@dataclass(frozen=True)
class ComputeFault:
    """Flip a bit in the compute domain at ``step``.

    ``site`` selects the corruption target: ``"gemm"`` corrupts the
    output of the ``nth`` ABFT-guarded GEMM executed that step,
    ``"weight"`` / ``"optimizer"`` flip one bit in the live model /
    optimizer state before the step runs, and ``"forecast"`` poisons one
    served forecast on the ``step``-th dispatch (``nth`` selects which
    guarded call within the dispatch).
    """

    step: int = 0
    site: str = "gemm"
    nth: int = 0

    def __post_init__(self):
        if self.site not in SDC_SITE_KINDS:
            raise ValueError(f"unknown compute-fault site {self.site!r}; "
                             f"known: {sorted(SDC_SITE_KINDS)}")


@dataclass(frozen=True)
class FaultPlan:
    """Scheduled events plus seeded background fault rates.

    ``p_bitflip`` / ``p_drop`` / ``p_straggle`` are per-transfer-attempt
    probabilities drawn from one generator seeded with ``seed`` — the
    statistical half of a chaos run, deterministic per plan.
    """

    events: tuple = ()
    seed: int = 0
    p_bitflip: float = 0.0
    p_drop: float = 0.0
    p_straggle: float = 0.0
    p_compute: float = 0.0

class FaultInjector:
    """Applies a :class:`FaultPlan` to a stream of simulated transfers.

    The cluster asks two questions:

    * :meth:`raise_if_dead` — before any collective: is a participant dead?
    * :meth:`transfer_fault` — per delivery attempt: does this transfer
      drop, flip, or straggle?

    ``injected`` tallies every fault dealt (per kind), which
    :func:`resilience_check` reconciles against the detections the comm
    layer booked — no fault may go unobserved.
    """

    def __init__(self, plan: FaultPlan = FaultPlan()):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.step = 0
        self.dead: set[int] = set()
        self.injected: dict = defaultdict(int)
        self._spent_failstops: set = set()
        self._spent_state: set = set()
        self._n: dict = defaultdict(int)  # per-step transfer index by primitive
        self.advance(0)

    # -- schedule position -------------------------------------------------
    def advance(self, step: int) -> None:
        """Move to training step ``step``: reset per-step transfer indices
        and mark any fail-stops that have come due."""
        self.step = step
        self._n.clear()
        for ev in self.plan.events:
            if (isinstance(ev, FailStop) and ev not in self._spent_failstops
                    and ev.step <= step and ev.rank not in self.dead):
                self.kill(ev.rank)

    def kill(self, rank: int) -> None:
        """Mark ``rank`` dead (fail-stop) from now on."""
        if rank not in self.dead:
            self.dead.add(rank)
            self._record_injected("failstop")

    def reset_grid(self) -> None:
        """The supervisor rebuilt the rank grid: survivors are renumbered,
        so the dead set is cleared and due fail-stop events are retired
        (future events address the *new* grid)."""
        for ev in self.plan.events:
            if isinstance(ev, FailStop) and ev.step <= self.step:
                self._spent_failstops.add(ev)
        self.dead.clear()

    # -- cluster-facing queries --------------------------------------------
    def raise_if_dead(self, ranks, primitive: str | None = None) -> None:
        for rank in ranks:
            if rank in self.dead:
                raise RankFailure(rank, primitive)

    def transfer_fault(self, primitive: str, src: int, dst: int,
                       attempt: int) -> tuple[str | None, float]:
        """Fault decision for one delivery attempt.

        Returns ``(fault, straggle_delay_s)`` where ``fault`` is ``None``
        (clean delivery), ``"flip"`` or ``"drop"``.  Scheduled events only
        hit the first attempt (so retries heal them); background rates
        apply to every attempt independently.
        """
        fault: str | None = None
        delay = 0.0
        plan = self.plan
        if attempt == 0:
            idx = {primitive: self._n[primitive], "*": self._n["*"]}
            self._n[primitive] += 1
            self._n["*"] += 1
            for ev in plan.events:
                # Only comm-domain events carry a primitive; fail-stops
                # are handled by advance()/raise_if_dead and compute
                # faults by compute_fault().
                if not isinstance(ev, (BitFlip, Drop, Straggle)):
                    continue
                if ev.step != self.step or ev.primitive not in idx \
                        or ev.nth != idx[ev.primitive]:
                    continue
                if isinstance(ev, Straggle):
                    delay = max(delay, ev.delay_s)
                elif fault is None:
                    fault = "flip" if isinstance(ev, BitFlip) else "drop"
        if fault is None and plan.p_bitflip \
                and self.rng.random() < plan.p_bitflip:
            fault = "flip"
        if fault is None and plan.p_drop and self.rng.random() < plan.p_drop:
            fault = "drop"
        if not delay and plan.p_straggle \
                and self.rng.random() < plan.p_straggle:
            delay = STRAGGLE_DELAY_S
        if fault is not None:
            self._record_injected(fault)
        if delay:
            self._record_injected("straggler")
        return fault, delay

    def corrupt(self, array: np.ndarray) -> np.ndarray:
        """A copy of ``array`` with one seeded bit flipped — what the
        receiver 'gets' when a bit-flip fault fires."""
        a = np.ascontiguousarray(array)
        raw = bytearray(a.tobytes())
        if raw:
            pos = int(self.rng.integers(len(raw)))
            raw[pos] ^= 1 << int(self.rng.integers(8))
        return np.frombuffer(bytes(raw), dtype=a.dtype).reshape(a.shape)

    # -- compute-domain faults ---------------------------------------------
    def compute_fault(self, site: str = "gemm") -> bool:
        """Fault decision for one guarded compute operation at ``site``.

        Scheduled :class:`ComputeFault` events hit the ``nth`` guarded
        call of their site within the current step; the background
        ``p_compute`` rate applies to every call independently.  Returns
        ``True`` when the caller must corrupt its output (and the fault
        is booked as injected).  A rolled-back retry re-runs *clean*
        because the per-step call index has moved past the scheduled
        ``nth`` — mirroring how a transient hardware flip does not recur
        deterministically.
        """
        key = f"sdc:{site}"
        idx = self._n[key]
        self._n[key] += 1
        fired = False
        for ev in self.plan.events:
            if (isinstance(ev, ComputeFault) and ev.site == site
                    and ev.step == self.step and ev.nth == idx):
                fired = True
        if not fired and self.plan.p_compute \
                and self.rng.random() < self.plan.p_compute:
            fired = True
        if fired:
            self._record_injected(SDC_SITE_KINDS[site])
        return fired

    def state_faults(self) -> list[str]:
        """Scheduled state-corruption sites (``"weight"`` /
        ``"optimizer"``) due at the current step, each consumed exactly
        once — the guarded trainer applies them via
        :meth:`corrupt_state` before running the step.

        Duplicate events for the same site at the same step collapse to
        one: a CRC section audit detects "this section is corrupt", not
        how many bits flipped, so booking a second injection that no
        detector could ever count separately would make
        detected-vs-injected reconciliation fail by construction."""
        sites: list[str] = []
        for ev in self.plan.events:
            if (isinstance(ev, ComputeFault)
                    and ev.site in ("weight", "optimizer")
                    and ev.step == self.step and ev not in self._spent_state):
                self._spent_state.add(ev)
                if ev.site not in sites:
                    sites.append(ev.site)
        return sites

    def corrupt_state(self, arrays, site: str) -> None:
        """Flip one seeded bit *in place* across ``arrays`` — persistent
        state corruption (any bit: the CRC audit catches them all)."""
        arrays = [np.asarray(a) for a in arrays if np.asarray(a).size]
        if not arrays:
            return
        arr = arrays[int(self.rng.integers(len(arrays)))]
        raw = np.ascontiguousarray(arr).view(np.uint8).reshape(-1)
        pos = int(self.rng.integers(raw.size))
        raw[pos] ^= np.uint8(1 << int(self.rng.integers(8)))
        self._record_injected(SDC_SITE_KINDS[site])

    def corrupt_compute(self, array: np.ndarray) -> None:
        """Flip the high exponent bit of one seeded element *in place* —
        the detectable class of GEMM corruption (a transient that lands
        below the checksum noise floor is numerically indistinguishable
        from rounding and is out of the threat model)."""
        if not array.size:
            return
        # Indexed through the array's own strides: a GEMM may write its
        # output into a non-contiguous view, which `reshape(-1)` would copy.
        idx = np.unravel_index(int(self.rng.integers(array.size)),
                               array.shape)
        if array.dtype == np.float64:
            array.view(np.uint64)[idx] ^= np.uint64(1) << np.uint64(62)
        elif array.dtype == np.float32:
            array.view(np.uint32)[idx] ^= np.uint32(1) << np.uint32(30)
        else:  # fall back to a sign flip for other real dtypes
            array[idx] = -array[idx] if array[idx] != 0 \
                else array.dtype.type(1)

    def poison_forecast(self, arrays) -> None:
        """Poison one seeded element of one forecast array *in place*
        with a physically absurd value (NaN or ±huge) — the class of
        output corruption the serve guardrails are specified to catch."""
        arrays = [a for a in arrays if a.size]
        if not arrays:
            return
        arr = arrays[int(self.rng.integers(len(arrays)))]
        flat = arr.reshape(-1)
        idx = int(self.rng.integers(flat.size))
        poison = (np.nan, 1e30, -1e30)[int(self.rng.integers(3))]
        flat[idx] = poison

    # -- bookkeeping -------------------------------------------------------
    def _record_injected(self, kind: str) -> None:
        self.injected[kind] += 1
        _count("resilience.faults_injected", "faults dealt by the injector",
               1, kind=kind)
        _record_event("fault.injected", subsystem="resilience",
                      severity="warning", fault=kind, step=self.step)


# -- scoped compute-fault source -----------------------------------------------
# The ABFT-guarded kernels sit far below the trainer and take raw arrays,
# so the active injector travels in a context variable rather than every
# call signature — same pattern as the obs hooks in repro.obs.profile.
_COMPUTE_INJECTOR = ContextVar("compute_injector", default=None)


def compute_injector() -> FaultInjector | None:
    """The injector whose compute faults guarded kernels must consult
    (``None`` outside an :func:`inject_compute` scope)."""
    return _COMPUTE_INJECTOR.get()


def inject_compute(injector: FaultInjector | None):
    """Install ``injector`` as the compute-fault source for the dynamic
    extent of the block (``None`` is a no-op scope)."""
    return scoped(_COMPUTE_INJECTOR, injector)


# -- TraceReport checks: injected vs observed ----------------------------------
def _reconcile(report, injector, kinds, handled=()):
    """``{kind: {injected, detected, match}}`` for ``kinds``: what the
    injector dealt against what the class's
    :data:`~repro.obs.health.FAULT_CLASSES` meter booked (``handled``
    kinds are survived rather than detected, and say so in their key)."""
    per_kind = {}
    for kind in kinds:
        dealt = injector.injected.get(kind, 0)
        seen = FAULT_CLASSES[kind].detected(report.registry)
        per_kind[kind] = {
            "injected": dealt,
            "handled" if kind in handled else "detected": seen,
            "match": seen == dealt}
    return per_kind


def resilience_check(report: TraceReport, injector: FaultInjector) -> dict:
    """Every fault the injector dealt must be *observed* somewhere.

    A :class:`repro.obs.TraceReport` check reconciling
    :attr:`FaultInjector.injected` against what the layers booked:
    transient flips/drops against ``comm.faults_detected``, stragglers
    against the ``comm.straggler_s`` histogram, fail-stops against the
    supervisor's ``resilience.dead_ranks`` counter.  Spans of category
    ``resilience`` are counted too — a silent fault (dealt but never
    detected) fails the check.
    """
    per_kind = _reconcile(
        report, injector,
        [k for k in FAULT_CLASSES if k not in SDC_SITE_KINDS.values()],
        handled=("failstop",))
    agrees = all(r["match"] for r in per_kind.values())
    n_spans = len(report.tracer.select(category="resilience"))
    parts = [f"{kind} {r['injected']}/{r.get('detected', r.get('handled'))}"
             for kind, r in per_kind.items()]
    return {"check": "resilience_faults", "per_kind": per_kind,
            "resilience_spans": n_spans, "agrees": agrees,
            "summary": f"resilience faults (injected/observed): "
                       f"{', '.join(parts)} | {n_spans} spans | "
                       f"{'OK' if agrees else 'MISMATCH'}"}


def sdc_check(report: TraceReport, injector: FaultInjector) -> dict:
    """Every *compute-domain* corruption dealt must be detected — and
    every detection must have closed with a recovery.

    The silent-data-corruption analogue of :func:`resilience_check`:
    injected GEMM flips (``sdc_gemm``) and state flips (``sdc_weight``
    / ``sdc_opt``) reconcile against ``resilience.sdc_detected`` (the
    ABFT checksums and the guarded step's CRC audit), and poisoned
    forecasts (``sdc_forecast``) against
    ``serve.forecasts_quarantined`` (the physical guardrails).  The
    recovery loop must also close: the guarded trainer books one
    ``train.step_retries`` rollback per compute/state detection, so a
    detection that never rolled back — detected but *not* healed —
    fails the check.
    """
    registry = report.registry
    per_kind = _reconcile(report, injector, SDC_SITE_KINDS.values())
    # Forecast corruption heals by re-serving, everything else by a
    # trainer rollback booked under the site's name.
    retried = [site for site in SDC_SITE_KINDS if site != "forecast"]
    retries = registry.counter("train.step_retries")
    recovered = {
        "step_retries": {cause: retries.total(cause=cause)
                         for cause in retried},
        "guardrail_reruns": registry.counter(
            "serve.guardrail_reruns").total(),
        "escalations": registry.counter("train.guard_escalations").total(),
    }
    recovery_closed = (
        sum(recovered["step_retries"].values())
        == sum(per_kind[SDC_SITE_KINDS[site]]["detected"]
               for site in retried))
    agrees = recovery_closed and all(r["match"] for r in per_kind.values())
    n_spans = len(report.tracer.select(category="resilience"))
    parts = [f"{kind} {r['injected']}/{r['detected']}"
             for kind, r in per_kind.items()]
    return {"check": "sdc_faults", "per_kind": per_kind,
            "recovered": recovered, "recovery_closed": recovery_closed,
            "resilience_spans": n_spans, "agrees": agrees,
            "summary": f"sdc faults (injected/detected): {', '.join(parts)}"
                       f" | retries "
                       f"{sum(recovered['step_retries'].values()):g}, "
                       f"reruns {recovered['guardrail_reruns']:g} | "
                       f"recovery {'closed' if recovery_closed else 'OPEN'}"
                       f" | {'OK' if agrees else 'MISMATCH'}"}
