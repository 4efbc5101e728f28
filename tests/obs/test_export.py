"""Exporters: golden Prometheus exposition text, golden dashboard render
(both deterministic under :class:`StepClock`), atomic write behaviour."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.model import Aeris
from repro.obs import (FlightRecorder, MetricsRegistry,
                       events_jsonl, prometheus_text,
                       render_dashboard, write_events_jsonl,
                       write_metrics_json, write_prometheus)
from repro.obs.dashboard import _SECTIONS
from repro.train import Trainer, TrainerConfig
from tests.clock import StepClock
from tests.train.test_trainer import TINY16


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("train.steps", "optimization steps").inc(12)
    reg.gauge("train.loss", "last training loss").set(0.625)
    reg.counter("serve.requests").inc(3, event="completed", tier="fast")
    reg.counter("serve.requests").inc(1, event="rejected", tier="high")
    reg.histogram("serve.latency_s", "served-request latency",
                  buckets=(0.1, 1.0, 10.0)).observe(0.5, tier="fast")
    reg.histogram("serve.latency_s",
                  buckets=(0.1, 1.0, 10.0)).observe(20.0, tier="fast")
    return reg


GOLDEN_PROM = """\
# HELP serve_latency_s served-request latency
# TYPE serve_latency_s histogram
serve_latency_s_bucket{tier="fast",le="0.1"} 0
serve_latency_s_bucket{tier="fast",le="1"} 1
serve_latency_s_bucket{tier="fast",le="10"} 1
serve_latency_s_bucket{tier="fast",le="+Inf"} 2
serve_latency_s_sum{tier="fast"} 20.5
serve_latency_s_count{tier="fast"} 2
# TYPE serve_requests counter
serve_requests_total{event="completed",tier="fast"} 3
serve_requests_total{event="rejected",tier="high"} 1
# HELP train_loss last training loss
# TYPE train_loss gauge
train_loss 0.625
# HELP train_steps optimization steps
# TYPE train_steps counter
train_steps_total 12
"""


class TestPrometheus:
    def test_golden_exposition(self):
        assert prometheus_text(_registry()) == GOLDEN_PROM

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(1, path='x"y\\z')
        assert 'path="x\\"y\\\\z"' in prometheus_text(reg)

    def test_help_survives_a_reader_that_asks_first(self):
        """A ``*_check`` may read an instrument before any writer booked
        it; the writer's help must still reach the export (a second,
        different help does not replace the first)."""
        def booked(reader_first: bool) -> str:
            with obs.observed() as (_, reg):
                if reader_first:
                    assert reg.counter("serve.batches").total() == 0
                    assert reg.gauge("serve.cache_bytes").value() == 0
                    assert reg.histogram("serve.latency_s").help == ""
                obs.count("serve.batches", "micro-batches assembled", 2,
                          tier="fast")
                obs.gauge("serve.cache_bytes", "resident bytes", 64)
                obs.observe("serve.latency_s", "served-request latency", 0.5)
                obs.count("serve.batches", "something else", 1, tier="fast")
                if not reader_first:
                    assert reg.counter("serve.batches").total() == 3
            return prometheus_text(reg)

        text = booked(reader_first=True)
        assert text == booked(reader_first=False)
        assert "# HELP serve_batches micro-batches assembled" in text
        assert "# HELP serve_cache_bytes resident bytes" in text
        assert "# HELP serve_latency_s served-request latency" in text

    def test_write_is_atomic_and_exact(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        assert write_prometheus(_registry(), path) == path
        assert open(path).read() == GOLDEN_PROM
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["metrics.prom"]  # no stray temp files


class TestEventsJsonl:
    def test_roundtrips_event_dicts(self, tmp_path):
        rec = FlightRecorder(clock=StepClock())
        rec.record("a", subsystem="train", x=1)
        rec.record("b", severity="warning")
        text = events_jsonl(rec.events())
        assert [json.loads(line) for line in text.splitlines()] == \
            [e.to_dict() for e in rec.events()]
        path = str(tmp_path / "events.jsonl")
        write_events_jsonl(rec.events(), path)
        assert open(path).read() == text


class TestMetricsJson:
    def test_snapshot_roundtrip_through_file(self, tmp_path):
        reg = _registry()
        path = str(tmp_path / "metrics.json")
        write_metrics_json(reg, path)
        restored = MetricsRegistry()
        restored.load_snapshot(json.loads(open(path).read()))
        assert restored.snapshot() == reg.snapshot()


GOLDEN_DASHBOARD = """\
================================================================
                     repro health dashboard
================================================================
-- train -------------------------------------------------------
  train.steps  -                            12
  train.loss  -                            0.625
-- serve -------------------------------------------------------
  serve.requests  event=completed,tier=fast    3
  serve.requests  event=rejected,tier=high     1
  serve.latency_s  tier=fast                    n=2 mean=10.25 max=20
-- alerts (1) --------------------------------------------------
  [critical] train.loss_nonfinite{step=3} x1  non-finite loss nan at step 3
-- flight tail (2 events, 0 dropped) ---------------------------
  #0     train.step           [info] train
  #1     alert                [critical] train
================================================================
"""


class TestDashboard:
    def test_golden_render(self):
        registry = _registry()
        with obs.monitored(clock=StepClock()) as m:
            m.recorder.record("train.step", subsystem="train", step=3)
            # Routed into the session's recorder via the global hook.
            m.monitor.observe_step(3, float("nan"))
            panel = render_dashboard(registry=registry, plan_caches={})
        assert panel == GOLDEN_DASHBOARD

    def test_render_is_deterministic(self):
        a = render_dashboard(registry=_registry(), plan_caches={})
        b = render_dashboard(registry=_registry(), plan_caches={})
        assert a == b

    def test_no_alerts_section_says_none(self):
        with obs.monitored(clock=StepClock()):
            panel = render_dashboard(registry=MetricsRegistry(),
                                     plan_caches={})
        assert "(none fired)" in panel

    def test_spans_section_from_tracer(self):
        with obs.observed() as (tracer, _):
            tracer.add_span("stage", 0.0, 1.0, track="pp0")
            panel = render_dashboard(registry=MetricsRegistry(),
                                     plan_caches={})
        assert "-- spans" in panel and "stage" in panel


#: Every row :func:`render_dashboard` writes for :func:`every_row_registry`,
#: recorded from the renderer before its counter and histogram rows shared
#: one walk.
GOLDEN_ROWS = os.path.join(os.path.dirname(__file__), "golden_dashboard.txt")


def every_row_registry() -> MetricsRegistry:
    """Each instrument a dashboard section names: unlabeled and under two
    label sets, values integral, fractional, negative and past ``1e15``."""
    reg = MetricsRegistry()
    values = (12, 0.625, -1.25, 2.5e15, 1e-7, 3.0)
    labels = ({}, {"tier": "fast"}, {"rank": "3", "tier": "high"})
    for i, (_, gauges, hists) in enumerate(_SECTIONS):
        for j, name in enumerate(gauges):
            for k, label in enumerate(labels):
                reg.gauge(name, "g").set(values[(i + j + k) % 6], **label)
        for name in hists:
            for k, label in enumerate(labels):
                for value in values[k:k + 3]:
                    reg.histogram(name, "h", buckets=(0.1, 1.0)).observe(
                        value, **label)
    return reg


class TestDashboardRows:
    def test_every_row_is_the_recorded_text(self):
        with open(GOLDEN_ROWS) as fh:
            golden = fh.read()
        assert render_dashboard(registry=every_row_registry(),
                                plan_caches={}) == golden


class TestNonFiniteValues:
    """A NaN-guarded step sets ``train.loss`` to NaN; every exporter
    still renders."""

    def test_exporters_render_a_poisoned_step(self, tiny_archive):
        trainer = Trainer(Aeris(TINY16, seed=0), tiny_archive,
                          TrainerConfig(batch_size=2))
        with obs.monitored(clock=StepClock()) as m:
            next(iter(trainer.model.parameters())).data[...] = np.nan
            assert not np.isfinite(trainer.train_step())
            prom = prometheus_text(m.registry)
            panel = render_dashboard(plan_caches={})
        assert "train_loss NaN" in prom.splitlines()
        assert "  train.loss  -                            nan" in \
            panel.splitlines()

    def test_infinities_keep_their_spelling(self):
        reg = MetricsRegistry()
        reg.gauge("train.loss").set(float("inf"))
        reg.gauge("train.grad_norm").set(float("-inf"))
        assert "train_loss +Inf" in prometheus_text(reg).splitlines()
        assert "train_grad_norm -Inf" in prometheus_text(reg).splitlines()
        panel = render_dashboard(registry=reg, plan_caches={})
        assert "  train.grad_norm  -                            -inf" in \
            panel.splitlines()
