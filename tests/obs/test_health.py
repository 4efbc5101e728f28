"""Health monitor detectors and the alert funnel, all under
deterministic clocks so firings are exactly reproducible.  Every detector
runs at its shipped threshold (the constants of ``repro.obs.health``): a
boundary is reached by feeding observations, not by configuring it."""

import pytest

from repro import obs
from repro.obs import (FAULT_ALERT_KINDS, FAULT_CLASSES, AlertManager,
                       HealthMonitor, MetricsRegistry)
from repro.obs.health import (BURN_SLOW_WINDOW, GRAD_WINDOW, LOSS_WINDOW,
                              PLATEAU_STEPS)
from repro.resilience.faults import SDC_SITE_KINDS
from tests.clock import StepClock


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


def _of(alerts: AlertManager, kind: str) -> list:
    """The alerts of one kind."""
    return [a for a in alerts.alerts if a.kind == kind]


def _monitor() -> HealthMonitor:
    return HealthMonitor(clock=StepClock())


class TestLossDetectors:
    def test_nonfinite_is_critical_and_does_not_poison_windows(self):
        mon = _monitor()
        for i in range(LOSS_WINDOW):
            mon.observe_step(i, 1.0)
        mon.observe_step(LOSS_WINDOW, float("nan"))
        assert [a.severity for a in
                _of(mon.alerts, "train.loss_nonfinite")] == ["critical"]
        # window still usable after the NaN
        mon.observe_step(LOSS_WINDOW + 1, 1.0)
        assert "train.loss_spike" not in mon.alerts.kinds()

    def test_spike_via_robust_z(self):
        mon = _monitor()
        for i in range(LOSS_WINDOW):
            mon.observe_step(i, 1.0 + 0.01 * (i % 2))
        mon.observe_step(LOSS_WINDOW, 50.0)
        spikes = _of(mon.alerts, "train.loss_spike")
        assert len(spikes) == 1 and spikes[0].severity == "warning"
        assert spikes[0].data["z"] > 8.0

    def test_steady_decrease_never_spikes_or_plateaus(self):
        mon = _monitor()
        for i in range(2 * PLATEAU_STEPS):  # past both boundaries
            mon.observe_step(i, 10.0 * (0.95 ** i))
        assert mon.alerts.kinds() == set()

    def test_plateau_needs_min_steps_then_fires_info(self):
        mon = _monitor()
        for i in range(PLATEAU_STEPS - 1):
            mon.observe_step(i, 1.0)
        assert "train.loss_plateau" not in mon.alerts.kinds()
        mon.observe_step(PLATEAU_STEPS - 1, 1.0)
        plateau = _of(mon.alerts, "train.loss_plateau")
        assert len(plateau) == 1 and plateau[0].severity == "info"


class TestGradDetector:
    def test_explosion_and_nonfinite(self):
        mon = _monitor()
        for i in range(GRAD_WINDOW):
            mon.observe_step(i, 1.0, grad_norm=2.0 + 0.01 * i)
        mon.observe_step(GRAD_WINDOW, 1.0, grad_norm=500.0)
        assert len(_of(mon.alerts, "train.grad_explosion")) == 1
        mon.observe_step(GRAD_WINDOW + 1, 1.0, grad_norm=float("inf"))
        assert _of(mon.alerts, "train.grad_explosion")[0].count == 2


class TestServeDetectors:
    def test_burn_needs_both_windows_over(self):
        mon = _monitor()
        for _ in range(BURN_SLOW_WINDOW):
            mon.observe_latency("fast", 0.1, slo_s=1.0)  # all hits
        assert "serve.slo_burn" not in mon.alerts.kinds()
        for _ in range(6):  # fast 6/16 = 7.5x budget, slow 6/128 = 0.94x
            mon.observe_latency("fast", 5.0, slo_s=1.0)
        assert "serve.slo_burn" not in mon.alerts.kinds()
        mon.observe_latency("fast", 5.0, slo_s=1.0)  # slow 7/128 = 1.09x
        burns = _of(mon.alerts, "serve.slo_burn")
        assert burns and burns[0].severity == "critical"
        assert dict(burns[0].labels) == {"tier": "fast"}

    def test_fast_blip_alone_does_not_page(self):
        """The multi-window defence: a short burst misses the fast window
        but the slow window stays under budget."""
        mon = _monitor()
        for _ in range(BURN_SLOW_WINDOW - 4):
            mon.observe_latency("std", 0.1, slo_s=1.0)
        for _ in range(4):  # fast 4/16 = 5x budget, slow 4/128 = 0.63x
            mon.observe_latency("std", 5.0, slo_s=1.0)
        assert "serve.slo_burn" not in mon.alerts.kinds()

    def test_queue_saturation_threshold(self):
        mon = _monitor()
        mon.observe_queue_depth("fast", 8, 10)
        assert mon.alerts.kinds() == set()
        mon.observe_queue_depth("fast", 9, 10)
        assert mon.alerts.kinds() == {"serve.queue_saturation"}


class TestFaultClassTable:
    def test_keys_are_exactly_the_injectable_classes(self):
        assert set(FAULT_CLASSES) == (
            {"flip", "drop", "straggler", "failstop"}
            | set(SDC_SITE_KINDS.values()))

    def test_alert_kinds_are_unique_and_the_view_is_unchanged(self):
        kinds = [row.alert_kind for row in FAULT_CLASSES.values()]
        assert len(set(kinds)) == len(kinds)
        assert FAULT_ALERT_KINDS == {
            "flip": "comm.bitflip",
            "drop": "comm.drop",
            "straggler": "comm.straggler",
            "failstop": "resilience.rank_failure",
            "sdc_gemm": "compute.gemm_sdc",
            "sdc_weight": "state.weight_sdc",
            "sdc_opt": "state.optimizer_sdc",
            "sdc_forecast": "serve.forecast_sdc",
        }

    def test_check_faults_fires_each_row_as_the_hand_written_dicts_did(self):
        """Kind, severity, subsystem and message per class, in firing
        order, as ``check_faults`` fired them from its own three dicts."""
        reg = MetricsRegistry()
        reg.counter("comm.faults_detected").inc(2, kind="flip")
        reg.counter("comm.faults_detected").inc(3, kind="drop")
        reg.histogram("comm.straggler_s").observe(0.05, primitive="p2p")
        reg.counter("resilience.dead_ranks").inc(1)
        reg.counter("resilience.sdc_detected").inc(4, kind="sdc_gemm")
        reg.counter("resilience.sdc_detected").inc(5, kind="sdc_weight")
        reg.counter("resilience.sdc_detected").inc(6, kind="sdc_opt")
        reg.counter("serve.forecasts_quarantined").inc(7, tier="fast")
        mon = _monitor()
        mon.check_faults(reg)
        assert [(a.kind, a.severity, a.subsystem, a.message)
                for a in mon.alerts.alerts] == [
            ("comm.bitflip", "warning", "comm", "2 flip fault(s) observed"),
            ("comm.drop", "warning", "comm", "3 drop fault(s) observed"),
            ("comm.straggler", "warning", "comm",
             "1 straggler fault(s) observed"),
            ("resilience.rank_failure", "critical", "resilience",
             "1 failstop fault(s) observed"),
            ("compute.gemm_sdc", "critical", "kernels",
             "4 sdc_gemm fault(s) observed"),
            ("state.weight_sdc", "critical", "train",
             "5 sdc_weight fault(s) observed"),
            ("state.optimizer_sdc", "critical", "train",
             "6 sdc_opt fault(s) observed"),
            ("serve.forecast_sdc", "critical", "serve",
             "7 sdc_forecast fault(s) observed"),
        ]


class TestPullDetectors:
    def test_check_faults_maps_meters_to_alert_kinds(self):
        reg = MetricsRegistry()
        reg.counter("comm.faults_detected").inc(2, kind="flip")
        reg.histogram("comm.straggler_s").observe(0.05, primitive="p2p")
        reg.counter("resilience.dead_ranks").inc(1)
        mon = _monitor()
        counts = mon.check_faults(reg)
        assert counts == {"flip": 2, "drop": 0, "straggler": 1,
                          "failstop": 1, "sdc_gemm": 0, "sdc_weight": 0,
                          "sdc_opt": 0, "sdc_forecast": 0}
        assert mon.alerts.kinds() == {"comm.bitflip", "comm.straggler",
                                      "resilience.rank_failure"}
        assert _of(mon.alerts, "resilience.rank_failure")[0].severity \
            == "critical"

    def test_check_faults_maps_sdc_meters_to_alert_kinds(self):
        reg = MetricsRegistry()
        reg.counter("resilience.sdc_detected").inc(1, kind="sdc_gemm")
        reg.counter("resilience.sdc_detected").inc(2, kind="sdc_weight")
        reg.counter("resilience.sdc_detected").inc(1, kind="sdc_opt")
        reg.counter("serve.forecasts_quarantined").inc(1, tier="fast")
        mon = _monitor()
        counts = mon.check_faults(reg)
        assert counts == {"flip": 0, "drop": 0, "straggler": 0,
                          "failstop": 0, "sdc_gemm": 1, "sdc_weight": 2,
                          "sdc_opt": 1, "sdc_forecast": 1}
        assert mon.alerts.kinds() == {"compute.gemm_sdc", "state.weight_sdc",
                                      "state.optimizer_sdc",
                                      "serve.forecast_sdc"}
        # Silent data corruption is always page-worthy.
        for kind in mon.alerts.kinds():
            assert _of(mon.alerts, kind)[0].severity == "critical"

    def test_check_faults_clean_registry_fires_nothing(self):
        mon = _monitor()
        mon.check_faults(MetricsRegistry())
        assert mon.alerts.kinds() == set()

    def test_skipped_steps_fire_nonfinite(self):
        reg = MetricsRegistry()
        reg.counter("train.skipped_steps").inc(3)
        mon = _monitor()
        mon.check_faults(reg)
        assert mon.alerts.kinds() == {"train.loss_nonfinite"}


class TestAlertManager:
    def test_dedup_within_cooldown(self):
        clock = StepClock()  # 1s per reading << cooldown
        mgr = AlertManager(clock=clock)
        for _ in range(5):
            mgr.fire("k", "warning", "train", "msg", tier="fast")
        assert len(mgr.alerts) == 1
        assert mgr.alerts[0].count == 5
        assert mgr.fired == 5 and mgr.routed == 1

    def test_refires_after_cooldown(self):
        clock = StepClock(step=100.0)  # every reading jumps past cooldown
        mgr = AlertManager(clock=clock)
        mgr.fire("k", "warning", "train", "msg")
        mgr.fire("k", "warning", "train", "msg")
        assert len(mgr.alerts) == 1  # still one deduplicated record
        assert mgr.alerts[0].count == 2
        assert mgr.routed == 2      # but both firings routed

    def test_distinct_labels_are_distinct_alerts(self):
        mgr = AlertManager(clock=StepClock())
        mgr.fire("k", "warning", "serve", "m", tier="fast")
        mgr.fire("k", "warning", "serve", "m", tier="high")
        assert len(mgr.alerts) == 2
        assert len(_of(mgr, "k")) == 2
        assert {a.severity for a in _of(mgr, "k")} == {"warning"}

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            AlertManager(clock=StepClock()).fire("k", "oops", "train", "m")

    def test_summary_and_clear(self):
        mgr = AlertManager(clock=StepClock())
        mgr.fire("k", "info", "train", "m")
        summary = mgr.summary()
        assert summary["total_firings"] == 1
        assert summary["alerts"][0]["kind"] == "k"
        mgr.clear()
        assert len(mgr) == 0 and mgr.fired == 0
