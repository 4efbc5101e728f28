"""``repro.obs`` — unified tracing, metrics, profiling, and health.

The measurement substrate behind the reproduction's performance claims
(the paper's "timers; performance modeling" methodology, Section VI-D):

* :mod:`~repro.obs.metrics` — labeled counters / gauges / histograms in a
  registry with mergeable JSON snapshots, and the one plain-text table
  renderer, :func:`text_table`;
* :mod:`~repro.obs.trace` — nested timed spans exported as Chrome
  ``trace_event`` JSON (open in ``chrome://tracing`` / Perfetto) or a
  plain-text summary table;
* :mod:`~repro.obs.profile` — scoped on/off switch plus the zero-cost
  hooks instrumented code calls (``span`` / ``record_event`` /
  ``count`` / ``gauge`` / ``observe``);
* :mod:`~repro.obs.flight` — bounded ring-buffer flight recorder, dumped
  as JSONL post-mortems by :func:`write_events_jsonl`;
* :mod:`~repro.obs.health` — online anomaly detectors (loss NaN/spike/
  plateau, gradient explosion, queue saturation, multi-window SLO burn, injected fault classes) firing
  typed, deduplicated alerts;
* :mod:`~repro.obs.alerts` — the severity/dedup/cooldown alert funnel;
* :mod:`~repro.obs.export` — Prometheus text exposition + JSONL event
  export (atomic writes);
* :mod:`~repro.obs.dashboard` — a deterministic terminal panel over the
  whole stack (CLI in ``tools/obs_dashboard.py``);
* :mod:`~repro.obs.report` — :class:`TraceReport`, collecting the
  cross-checks each subsystem ships beside its own bookkeeping
  (``report.run(serve_check, service)``): observed span totals, byte
  counters, fault accounting, and fired alerts against the
  :mod:`repro.perf` / :mod:`repro.resilience` ground truth.

Everything is **off by default** and strictly free when off::

    from repro import obs
    with obs.monitored() as m:
        trainer.fit(10)
    print(obs.render_dashboard())
    obs.write_prometheus(m.registry, "metrics.prom")
    obs.write_events_jsonl(m.recorder.events(), "flight.jsonl")
"""

from .alerts import Alert, AlertManager
from .dashboard import render_dashboard
from .export import (events_jsonl, prometheus_text, write_events_jsonl,
                     write_metrics_json, write_prometheus)
from .flight import SEVERITIES, Event, FlightRecorder
from .health import (FAULT_ALERT_KINDS, FAULT_CLASSES, HealthMonitor,
                     health_check)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, text_table
from .profile import (MonitoredSession, count, disable, disable_health,
                      enable, enable_health, flight, gauge, get_tracer,
                      health, metrics, monitored, observe,
                      observed, record_event, span)
from .report import TraceReport
from .trace import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "text_table",
    "Span", "Tracer",
    "span", "count", "gauge", "observe",
    "enable", "disable", "observed",
    "get_tracer", "metrics",
    "Event", "FlightRecorder", "SEVERITIES",
    "Alert", "AlertManager",
    "HealthMonitor", "FAULT_CLASSES", "FAULT_ALERT_KINDS", "health_check",
    "enable_health", "disable_health", "health", "flight",
    "record_event", "monitored", "MonitoredSession",
    "prometheus_text", "events_jsonl", "write_prometheus",
    "write_events_jsonl", "write_metrics_json",
    "render_dashboard",
    "TraceReport",
]
