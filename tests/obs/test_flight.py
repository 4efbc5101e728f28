"""Flight recorder: bounded ring, severity filtering, JSONL post-mortems
(atomic), and the zero-cost ``record_event`` hook."""

import json
from importlib import import_module

import pytest

from repro import obs
from repro.obs import Event, FlightRecorder, write_events_jsonl
from tests.clock import StepClock

#: The module, which ``repro.obs.flight`` (the accessor) shadows.
flight = import_module("repro.obs.flight")


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


class TestRing:
    def test_capacity_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 4)
        rec = FlightRecorder(clock=StepClock())
        for i in range(10):
            rec.record("tick", n=i)
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [e.data["n"] for e in rec.events()] == [6, 7, 8, 9]

    def test_seq_is_global_not_ring_relative(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 2)
        rec = FlightRecorder(clock=StepClock())
        for _ in range(5):
            rec.record("tick")
        assert [e.seq for e in rec.events()] == [3, 4]

    def test_invalid_severity(self):
        rec = FlightRecorder(clock=StepClock())
        with pytest.raises(ValueError):
            rec.record("tick", severity="fatal")

    def test_filters(self):
        rec = FlightRecorder(clock=StepClock())
        rec.record("a", subsystem="train")
        rec.record("b", subsystem="serve", severity="warning")
        rec.record("a", subsystem="serve", severity="critical")
        assert len(rec.events(kind="a")) == 2
        assert len(rec.events(subsystem="serve")) == 2
        assert len(rec.events(min_severity="warning")) == 2
        assert [e.kind for e in rec.tail(2)] == ["b", "a"]

    def test_clear(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 2)
        rec = FlightRecorder(clock=StepClock())
        for _ in range(3):
            rec.record("tick")
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        rec = FlightRecorder(clock=StepClock(0.25))
        rec.record("train.step", subsystem="train", step=0, loss=1.5)
        rec.record("alert", subsystem="obs", severity="critical", k="v")
        path = str(tmp_path / "flight.jsonl")
        assert write_events_jsonl(rec.events(), path) == path
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        assert lines == [e.to_dict() for e in rec.events()]
        assert lines[0]["ts"] == 0.0 and lines[1]["ts"] == 0.25

    def test_dump_leaves_no_temp_files(self, tmp_path):
        rec = FlightRecorder(clock=StepClock())
        rec.record("tick")
        write_events_jsonl(rec.events(), str(tmp_path / "f.jsonl"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.jsonl"]


class TestRecordEventHook:
    def test_noop_and_allocation_free_while_disabled(self):
        before = Event.allocated
        obs.record_event("train.step", subsystem="train", step=1)
        assert Event.allocated == before
        assert obs.flight() is None

    def test_routes_to_enabled_recorder(self):
        monitor, recorder = obs.enable_health()
        obs.record_event("train.step", subsystem="train", step=7)
        assert [e.data for e in recorder.events(kind="train.step")] == \
            [{"step": 7}]
        obs.disable_health()
        obs.record_event("train.step", subsystem="train", step=8)
        assert len(recorder.events()) == 1  # nothing after disable

    def test_enable_health_keeps_an_empty_recorder(self):
        """An installed recorder is kept even while it holds no events
        (an empty ring is falsy)."""
        monitor, recorder = obs.enable_health()
        assert len(recorder) == 0
        assert obs.enable_health() == (monitor, recorder)
        tracer, registry = obs.enable()
        assert obs.enable() == (tracer, registry)


class TestMonitoredScope:
    def test_yields_full_stack_and_restores(self):
        assert obs.get_tracer() is None
        with obs.monitored(clock=StepClock()) as m:
            assert obs.get_tracer() is m.tracer
            assert obs.metrics() is m.registry
            assert obs.health() is m.monitor
            assert obs.flight() is m.recorder
            obs.record_event("tick")
            assert len(m.recorder) == 1
        assert obs.get_tracer() is None
        assert obs.health() is None and obs.flight() is None

    def test_alerts_route_into_flight_and_metrics(self):
        with obs.monitored(clock=StepClock()) as m:
            m.monitor.observe_step(0, float("inf"))
            assert m.monitor.alerts.kinds() == {"train.loss_nonfinite"}
            assert len(m.recorder.events(kind="alert")) == 1
            assert m.registry.counter("obs.alerts").total(
                kind="train.loss_nonfinite") == 1
