"""Online health detection: rolling-window anomaly detectors over the
telemetry the rest of :mod:`repro.obs` already collects.

The passive layer (metrics, spans, flight events) answers "what
happened"; the :class:`HealthMonitor` answers "is the run healthy *right
now*" — the difference between a skillful exascale allocation and a
wasted one is noticing the loss spike, the straggling rank, or the SLO
burn while the job is still running.  Detectors:

* **loss** — NaN/Inf (critical), spikes via a robust z-score (median +
  MAD over a rolling window), and plateaus via two EWMAs (fast vs slow:
  when the fast average stops improving on the slow one, training has
  stalled);
* **gradient norm** — explosion relative to the rolling median;
* **serve queues** — per-tier depth saturation against the admission
  caps;
* **SLO burn rate** — multi-window (fast/slow) error-budget burn per
  tier: page only when *both* the recent window and the long window burn
  the budget, the standard defence against paging on blips;
* **fault classes** — transient comm faults, stragglers, fail-stops and
  compute-domain corruption booked by the resilience layer, mapped 1:1
  onto alert kinds by :data:`FAULT_CLASSES` so :func:`health_check` can
  reconcile fired alerts against a
  :class:`~repro.resilience.FaultPlan`'s injected classes.

Everything funnels through one :class:`~repro.obs.alerts.AlertManager`
(dedup + cooldown + routing into flight recorder and metrics).  The
monitor itself is cheap — O(window) arithmetic per observation — and
only runs when explicitly enabled (see
:func:`repro.obs.profile.enable_health`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .alerts import AlertManager

__all__ = ["HealthMonitor", "FaultClass", "FAULT_CLASSES",
           "FAULT_ALERT_KINDS", "health_check"]


class FaultClass(NamedTuple):
    """Where one injected fault class is detected and how it alerts."""

    instrument: str   # registry accessor of the meter: counter | histogram
    metric: str       # meter the detecting layer books into
    labels: dict      # series of that meter counting this class
    alert_kind: str
    severity: str
    subsystem: str

    def detected(self, registry) -> float:
        """Detections of this class booked in ``registry`` so far (a
        histogram counts its observations)."""
        if self.instrument == "histogram":
            return sum(cell["count"] for cell in registry.histogram(
                self.metric).series.values())
        return registry.counter(self.metric).total(**self.labels)


#: Injected fault class (``FaultInjector.injected`` keys) → its
#: detection meter and its alert.  *The* place to add a fault class:
#: :meth:`HealthMonitor.check_faults`, :func:`health_check`, the
#: ``resilience_check`` / ``sdc_check`` reconciliations in
#: :mod:`repro.resilience.faults` and the simtest invariants all read it.
FAULT_CLASSES = {
    "flip": FaultClass("counter", "comm.faults_detected", {"kind": "flip"},
                       "comm.bitflip", "warning", "comm"),
    "drop": FaultClass("counter", "comm.faults_detected", {"kind": "drop"},
                       "comm.drop", "warning", "comm"),
    "straggler": FaultClass("histogram", "comm.straggler_s", {},
                            "comm.straggler", "warning", "comm"),
    "failstop": FaultClass("counter", "resilience.dead_ranks", {},
                           "resilience.rank_failure", "critical",
                           "resilience"),
    "sdc_gemm": FaultClass("counter", "resilience.sdc_detected",
                           {"kind": "sdc_gemm"},
                           "compute.gemm_sdc", "critical", "kernels"),
    "sdc_weight": FaultClass("counter", "resilience.sdc_detected",
                             {"kind": "sdc_weight"},
                             "state.weight_sdc", "critical", "train"),
    "sdc_opt": FaultClass("counter", "resilience.sdc_detected",
                          {"kind": "sdc_opt"},
                          "state.optimizer_sdc", "critical", "train"),
    "sdc_forecast": FaultClass("counter", "serve.forecasts_quarantined", {},
                               "serve.forecast_sdc", "critical", "serve"),
}

#: Fault class → alert kind, a view of :data:`FAULT_CLASSES`.
FAULT_ALERT_KINDS = {fault: row.alert_kind
                     for fault, row in FAULT_CLASSES.items()}

#: Scale factor making the median absolute deviation a consistent
#: estimator of the standard deviation for normal data.
_MAD_TO_SIGMA = 1.4826

# Detector thresholds, sized for toy runs.  Constants, not options: every
# boundary is reachable by feeding more observations (DESIGN §11).
#: Loss: rolling window and robust z of a spike; min observations, fast /
#: slow EWMA coefficients and the fraction by which the fast one must
#: undercut the slow one before a plateau fires.
LOSS_WINDOW = 32
LOSS_SPIKE_Z = 8.0
PLATEAU_STEPS = 64
EWMA_FAST = 0.3
EWMA_SLOW = 0.03
PLATEAU_MARGIN = 1e-3
#: Gradient-norm explosion.
GRAD_WINDOW = 32
GRAD_EXPLOSION_Z = 10.0
#: Serve queue depth, as a fraction of the tier cap.
QUEUE_SATURATION_FRAC = 0.9
#: SLO burn (multi-window): tolerated miss fraction; the fast window must
#: burn ``BURN_FAST_THRESHOLD`` times it while the slow one is over budget.
SLO_ERROR_BUDGET = 0.05
BURN_FAST_WINDOW = 16
BURN_SLOW_WINDOW = 128
BURN_FAST_THRESHOLD = 2.0
BURN_SLOW_THRESHOLD = 1.0


def _median(values) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return float(s[mid]) if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def _robust_z(value: float, window) -> float:
    """Robust z-score of ``value`` against ``window`` (median + MAD)."""
    med = _median(window)
    mad = _median([abs(v - med) for v in window])
    scale = max(mad * _MAD_TO_SIGMA, 1e-12)
    return (value - med) / scale


class HealthMonitor:
    """Runs the detector suite; fires through one :class:`AlertManager`.

    Online observations (``observe_*``) are called from instrumented hot
    paths while health is enabled; the pull check ``check_faults`` runs
    when whoever holds the monitor calls it with a registry
    (:func:`health_check` does).
    """

    def __init__(self, clock=None):
        self.alerts = AlertManager(clock=clock)
        self._loss_window: deque[float] = deque(maxlen=LOSS_WINDOW)
        self._grad_window: deque[float] = deque(maxlen=GRAD_WINDOW)
        self._ewma_fast: float | None = None
        self._ewma_slow: float | None = None
        self._loss_observed = 0
        # per-tier (fast, slow) deques of SLO miss booleans
        self._burn: dict[str, tuple[deque, deque]] = {}

    # -- online: training -------------------------------------------------
    def observe_step(self, step: int, loss: float,
                     grad_norm: float | None = None) -> None:
        """Feed one training step's loss (and optionally gradient norm)."""
        if not math.isfinite(loss):
            self.alerts.fire(
                "train.loss_nonfinite", "critical", "train",
                f"non-finite loss {loss!r} at step {step}", step=str(step))
            return  # a NaN would poison the windows
        if len(self._loss_window) == LOSS_WINDOW:
            z = _robust_z(loss, self._loss_window)
            if z > LOSS_SPIKE_Z:
                self.alerts.fire(
                    "train.loss_spike", "warning", "train",
                    f"loss {loss:.6g} is {z:.1f} MADs above the rolling "
                    f"median at step {step}", data={"z": z, "loss": loss})
        self._loss_window.append(loss)
        self._loss_observed += 1
        if self._ewma_fast is None:
            self._ewma_fast = self._ewma_slow = loss
        else:
            self._ewma_fast += EWMA_FAST * (loss - self._ewma_fast)
            self._ewma_slow += EWMA_SLOW * (loss - self._ewma_slow)
            if (self._loss_observed >= PLATEAU_STEPS
                    and self._ewma_fast > self._ewma_slow
                    * (1.0 - PLATEAU_MARGIN)):
                self.alerts.fire(
                    "train.loss_plateau", "info", "train",
                    f"fast EWMA {self._ewma_fast:.6g} no longer improving "
                    f"on slow EWMA {self._ewma_slow:.6g}",
                    data={"fast": self._ewma_fast, "slow": self._ewma_slow})
        if grad_norm is not None:
            if not math.isfinite(grad_norm):
                self.alerts.fire(
                    "train.grad_explosion", "critical", "train",
                    f"non-finite gradient norm at step {step}")
            elif len(self._grad_window) == GRAD_WINDOW:
                z = _robust_z(grad_norm, self._grad_window)
                if z > GRAD_EXPLOSION_Z:
                    self.alerts.fire(
                        "train.grad_explosion", "critical", "train",
                        f"gradient norm {grad_norm:.6g} is {z:.1f} MADs "
                        f"above the rolling median at step {step}",
                        data={"z": z, "grad_norm": grad_norm})
            if math.isfinite(grad_norm):
                self._grad_window.append(grad_norm)

    # -- online: serving --------------------------------------------------
    def observe_latency(self, tier: str, latency_s: float,
                        slo_s: float) -> None:
        """Feed one completed request's latency into the burn windows."""
        fast, slow = self._burn.setdefault(
            tier, (deque(maxlen=BURN_FAST_WINDOW),
                   deque(maxlen=BURN_SLOW_WINDOW)))
        miss = latency_s > slo_s
        fast.append(miss)
        slow.append(miss)
        if len(fast) < BURN_FAST_WINDOW:
            return
        burn_fast = (sum(fast) / len(fast)) / SLO_ERROR_BUDGET
        burn_slow = (sum(slow) / len(slow)) / SLO_ERROR_BUDGET
        if burn_fast >= BURN_FAST_THRESHOLD \
                and burn_slow >= BURN_SLOW_THRESHOLD:
            self.alerts.fire(
                "serve.slo_burn", "critical", "serve",
                f"tier {tier!r} burning {burn_fast:.1f}x its error budget "
                f"(slow window {burn_slow:.1f}x)", tier=tier,
                data={"burn_fast": burn_fast, "burn_slow": burn_slow})

    def observe_queue_depth(self, tier: str, depth: int, cap: int) -> None:
        """Feed one admission-time queue depth against the tier cap."""
        if cap > 0 and depth >= QUEUE_SATURATION_FRAC * cap:
            self.alerts.fire(
                "serve.queue_saturation", "warning", "serve",
                f"tier {tier!r} queue at {depth}/{cap}", tier=tier,
                data={"depth": depth, "cap": cap})

    # -- pull: fault classes ----------------------------------------------
    def check_faults(self, registry) -> dict:
        """Map the resilience layer's bookkeeping onto fault-class alerts.

        Each class fires iff the corresponding meter is non-zero, so a
        fault-free run fires none of these kinds — the property
        :func:`health_check` asserts.
        """
        counts = {}
        for fault, row in FAULT_CLASSES.items():
            n = counts[fault] = row.detected(registry)
            if n > 0:
                self.alerts.fire(
                    row.alert_kind, row.severity, row.subsystem,
                    f"{int(n)} {fault} fault(s) observed",
                    data={"count": int(n)})
        skipped = registry.counter("train.skipped_steps").total()
        if skipped > 0:
            self.alerts.fire(
                "train.loss_nonfinite", "critical", "train",
                f"{int(skipped)} step(s) skipped by the NaN/Inf guard",
                data={"skipped_steps": int(skipped)})
        return counts


def health_check(report, monitor, injector=None) -> dict:
    """Fired alerts must reconcile against injected fault classes.

    Runs ``check_faults`` over the report's registry, then
    checks the two directions of alert fidelity against
    :data:`FAULT_CLASSES`:

    * **coverage** — every fault class the injector dealt at least
      once has its alert kind fired (a chaos run with silent fault
      classes fails);
    * **no false positives** — every fault class the injector never
      dealt (all of them, when ``injector`` is ``None``: a clean
      run) has its alert kind absent.

    Detectors outside the fault mapping (loss plateau, SLO burn, …)
    are deliberately out of scope — they alert on organic behaviour,
    not injections.
    """
    monitor.check_faults(report.registry)
    fired = monitor.alerts.kinds()
    injected = dict(injector.injected) if injector is not None else {}
    per_fault = {}
    for fault, kind in sorted(FAULT_ALERT_KINDS.items()):
        dealt = injected.get(fault, 0)
        alerted = kind in fired
        per_fault[fault] = {"injected": dealt, "alert_kind": kind,
                            "alerted": alerted,
                            "match": alerted == (dealt > 0)}
    agrees = all(r["match"] for r in per_fault.values())
    parts = [f"{fault} {r['injected']}/"
             f"{'fired' if r['alerted'] else 'quiet'}"
             for fault, r in per_fault.items()]
    return {"check": "health_alerts", "per_fault": per_fault,
            "alert_kinds_fired": sorted(fired),
            "alerts_total": len(monitor.alerts.alerts),
            "agrees": agrees,
            "summary": f"health alerts (injected/alert): {', '.join(parts)}"
                       f" | {len(monitor.alerts.alerts)} alert(s) | "
                       f"{'OK' if agrees else 'MISMATCH'}"}
