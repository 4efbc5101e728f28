"""Tracer: span recording, Chrome trace_event export, summaries, hooks."""

import json

import pytest

from repro import obs
from repro.obs import Span, Tracer
from tests.clock import StepClock


@pytest.fixture(autouse=True)
def _observability_off():
    """Tests control enablement explicitly; always restore 'disabled'."""
    yield
    obs.disable()


class TestTracer:
    def test_live_span_records_clock_interval(self):
        tracer = Tracer(clock=StepClock())
        with tracer.span("work", kind="test"):
            pass
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.duration == 1.0  # one clock tick between enter/exit
        assert span.attrs == {"kind": "test"}

    def test_nested_spans_all_recorded(self):
        tracer = Tracer(clock=StepClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.spans]
        assert names == ["inner", "outer"]  # completion order

    def test_add_span_explicit_times(self):
        tracer = Tracer()
        s = tracer.add_span("virt", 2.0, 5.0, track="rank1",
                            category="pp-1f1b", phase="F")
        assert s.duration == 3.0
        assert tracer.select(category="pp-1f1b") == [s]
        assert tracer.select(track_prefix="rank") == [s]
        assert tracer.select(category="other") == []

class TestChromeExport:
    def _events(self, tracer):
        events = tracer.to_chrome()
        json.dumps(events)  # must be valid JSON
        return events

    def test_complete_events_have_required_fields(self):
        tracer = Tracer(clock=StepClock())
        with tracer.span("step", category="train", i=3):
            pass
        events = self._events(tracer)
        (x_event,) = [e for e in events if e["ph"] == "X"]
        assert x_event["name"] == "step"
        assert x_event["cat"] == "train"
        assert x_event["ts"] == 0.0
        assert x_event["dur"] == pytest.approx(1e6)  # seconds -> µs
        assert x_event["args"] == {"i": 3}

    def test_tracks_map_to_thread_metadata(self):
        tracer = Tracer()
        tracer.add_span("a", 0, 1, track="rank0")
        tracer.add_span("b", 0, 1, track="rank1")
        events = self._events(tracer)
        names = {e["args"]["name"]: e["tid"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(names) == {"rank0", "rank1"}
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert tids == set(names.values())

    def test_write_chrome_file_loads_back(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("a", 0, 1)
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        events = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in events)

    def test_non_jsonable_attrs_are_stringified(self):
        tracer = Tracer()
        tracer.add_span("a", 0, 1, obj=object())
        json.dumps(tracer.to_chrome())


class TestSummary:
    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        tracer.add_span("f", 0, 1)
        tracer.add_span("f", 1, 3)
        tracer.add_span("g", 0, 5)
        agg = tracer.summary()
        assert agg["f"]["count"] == 2
        assert agg["f"]["total"] == 3.0
        assert agg["f"]["mean"] == 1.5
        assert agg["f"]["min"] == 1.0 and agg["f"]["max"] == 2.0
        table = tracer.summary_table()
        # Byte-identical to the renderer before repro.obs.text_table.
        assert table == (
            "span  count  total_s   mean_s    min_s     max_s\n"
            "----  -----  --------  --------  --------  --------\n"
            "g     1      5.000000  5.000000  5.000000  5.000000\n"
            "f     2      3.000000  1.500000  1.000000  2.000000")
        # Sorted by total descending: g (5s) before f (3s).
        assert table.splitlines()[2].startswith("g")
        assert table.splitlines()[3].startswith("f")


class TestHooks:
    def test_disabled_span_is_shared_null_scope(self):
        assert obs.get_tracer() is None
        a = obs.span("x")
        b = obs.span("y", attr=1)
        assert a is b  # the shared singleton: nothing allocated

    def test_enabled_scope_records(self):
        tracer, _ = obs.enable()
        with obs.span("x", k="v"):
            pass
        assert tracer.spans[0].name == "x"
        assert tracer.spans[0].attrs == {"k": "v"}

    def test_observed_restores_previous_state(self):
        assert obs.get_tracer() is None
        with obs.observed() as (tracer, registry):
            assert obs.get_tracer() is not None
            assert obs.get_tracer() is tracer
            assert obs.metrics() is registry
        assert obs.get_tracer() is None

    def test_observed_nesting_restores_outer(self):
        outer_tracer, _ = obs.enable()
        with obs.observed():
            assert obs.get_tracer() is not outer_tracer
        assert obs.get_tracer() is outer_tracer
