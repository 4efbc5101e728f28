"""Tests of the benchmark harness itself (not of ``repro``).

Run with ``python -m pytest bench_e2e``; ``testpaths`` keeps this file out
of the repository's tier-1 suite.
"""

from __future__ import annotations

import json
import os

import pytest

from bench_e2e import ROOT, ensure_repro, trace, workloads
from bench_e2e.calibrate import ReferenceClock
from bench_e2e.stats import MIN_BEYOND, median, percentile, tail_percentile

ensure_repro()


class FakeClock:
    """Each read returns the next scripted instant."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self) -> float:
        return next(self.instants)


# -- self-time arithmetic -----------------------------------------------------

def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10]: child a [1, 4] (grandchild [2, 3]) and sibling b [5, 9].
    tracer = trace.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root", "bench"):
        with tracer.span("a", "x"):
            with tracer.span("a.inner", "x"):
                pass
        with tracer.span("b", "y"):
            pass
    by_name = dict(zip((s.name for s in tracer.spans), tracer.self_times()))
    assert by_name == {"root": 10 - 3 - 4, "a": 3 - 1, "a.inner": 1, "b": 4}
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_self_times_sum_to_root_wall():
    tracer = trace.Tracer(clock=FakeClock([0.0, 0.5, 0.7, 1.1, 1.3, 1.9,
                                           2.0, 3.0, 3.5, 4.25]))
    with tracer.span("root", "bench"):
        with tracer.span("a", "x"):
            pass
        with tracer.span("b", "x"):
            with tracer.span("c", "x"):
                pass
    with tracer.span("root2", "bench"):
        pass
    roots = sum(s.dur for s in tracer.spans if s.parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(roots)


def test_root_spans_open_a_new_op_and_children_share_it():
    tracer = trace.Tracer(clock=FakeClock(range(100)))
    for _ in range(2):
        with tracer.span("root", "bench"):
            with tracer.span("child", "x"):
                pass
    assert [s.op for s in tracer.spans] == [1, 1, 2, 2]


# -- probes -------------------------------------------------------------------

def test_every_probe_resolves_and_is_restored():
    originals = []
    for probe in trace.PROBES:
        owner, attr = trace._resolve(probe)
        originals.append((owner, attr, vars(owner)[attr]))
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        trace.uninstall(undo)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_probe_names_are_unique_per_target():
    targets = [(p.module, p.attr) for p in trace.PROBES]
    assert len(targets) == len(set(targets))


def test_wrapper_records_a_span_with_its_note():
    from repro.serve.cache import ForecastCache

    tracer = trace.Tracer()
    with trace.tracing(tracer):
        assert ForecastCache(1 << 20).get("missing") is None
    assert [(s.name, s.layer, s.note) for s in tracer.spans] \
        == [("cache.get", "serve", False)]
    assert not tracer._stack
    assert not hasattr(ForecastCache.get, "__wrapped__")


def test_wrapper_closes_its_span_when_the_call_raises():
    def boom():
        raise RuntimeError("x")

    tracer = trace.Tracer()
    wrapped = trace._wrap(boom, trace.Probe("m", "boom", "boom", "x"),
                          tracer)
    with pytest.raises(RuntimeError):
        wrapped()
    assert not tracer._stack and tracer.spans[0].end >= tracer.spans[0].start


# -- reference clock ----------------------------------------------------------

class ScriptedGauge:
    def __init__(self, readings):
        self.readings = iter(readings)

    def read(self) -> float:
        return next(self.readings)


def test_clock_divides_by_the_mean_of_the_bracketing_readings():
    clock = ReferenceClock(ScriptedGauge([1.0, 2.0, 4.0]))
    first = clock.timed(lambda: "x")
    second = clock.timed(lambda: "y")
    assert (first.value, first.speed) == ("x", 1.5)
    assert second.speed == 3.0          # the 2.0 reading is shared
    raw = [r for r, _, _ in clock.log]
    assert first.seconds == pytest.approx(raw[0] / 1.5)
    assert second.seconds == pytest.approx(raw[1] / 3.0)
    assert [traced for _, _, traced in clock.log] == [False, False]


def test_clock_wraps_a_traced_segment_in_a_root_span():
    clock = ReferenceClock(ScriptedGauge([1.0, 1.0]))
    clock.tracer = trace.Tracer()
    clock.timed(lambda: None)
    (span,) = clock.tracer.spans
    assert (span.name, span.layer, span.parent) == ("bench.segment",
                                                     "bench", -1)
    assert span.dur <= clock.log[0][0] and clock.log[0][2] is True


# -- generators ---------------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    a = workloads.steady_block(7, 3, 60, 12.5)
    assert a == workloads.steady_block(7, 3, 60, 12.5)
    assert a != workloads.steady_block(8, 3, 60, 12.5)
    assert a != workloads.steady_block(7, 4, 60, 12.5)
    assert workloads.cycle_requests(7, 1, 60) \
        == workloads.cycle_requests(7, 1, 60)
    assert workloads.rollout_query(7, 0, 60) \
        == workloads.rollout_query(7, 0, 60)
    assert (workloads.swipe_batch_indices(7, 2, 100, 8)
            == workloads.swipe_batch_indices(7, 2, 100, 8)).all()


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_steady_block_composition_is_the_template_on_every_seed(seed):
    block = workloads.steady_block(seed, 0, 60, 0.0)
    shape = sorted((q.tier, q.members, q.lead, q.repeat) for q in block)
    assert shape == sorted((t, m, l, r is not None)
                           for t, m, l, r in workloads.STEADY_TEMPLATE)
    arrivals = [q.arrival_s for q in block]
    assert arrivals == sorted(arrivals) and arrivals[0] > 0.0
    # every repeat re-asks a query that arrived earlier
    seen = set()
    for q in block:
        key = (q.tier, q.members, q.lead, q.sample, q.seed)
        assert (key in seen) == q.repeat
        seen.add(key)


def test_steady_mix_and_repeat_share():
    tiers = [t[0] for t in workloads.STEADY_TEMPLATE]
    assert (tiers.count("fast"), tiers.count("standard"),
            tiers.count("high")) == (8, 9, 3)
    repeats = sum(t[3] is not None for t in workloads.STEADY_TEMPLATE)
    assert repeats / len(tiers) == 0.3


def test_cycle_schedule_does_not_depend_on_the_seed():
    def shape(qs):
        return [(q.tier, q.members, q.lead, q.arrival_s) for q in qs]

    a = workloads.cycle_requests(1, 0, 60)
    b = workloads.cycle_requests(2, 0, 60)
    assert shape(a) == shape(b)
    assert (a[0].sample, a[0].seed) != (b[0].sample, b[0].seed)
    assert len({q.sample for q in a}) == 1        # one init state per cycle
    assert len({q.seed for q in a}) == 3
    assert sorted({q.arrival_s for q in a}) == [0.0, 15.0]    # two waves


# -- statistics ---------------------------------------------------------------

def test_percentile_refuses_too_few_samples_beyond():
    assert percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(range(99), 90)           # 9.9 samples beyond
    with pytest.raises(ValueError):
        percentile(range(60), 99)
    assert percentile(range(5), 50) == 2    # medians are always allowed
    assert MIN_BEYOND == 10


def test_tail_percentile_picks_the_highest_supported():
    assert tail_percentile(range(1000))[0] == 99
    assert tail_percentile(range(200))[0] == 95
    assert tail_percentile(range(100))[0] == 90
    assert tail_percentile(range(40))[0] == 75
    assert tail_percentile(range(39)) == (50.0, 19.0)
    assert median([]) == 0.0


# -- BENCHMARK.json matches the code -------------------------------------------

def test_benchmark_json_matches_the_code():
    from bench_e2e.harness import WORKLOADS
    from bench_e2e.ledger import LEDGER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench_e2e"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == workloads.WORKLOADS
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] \
        == [(e.name, e.unit, e.better) for e in LEDGER]
    assert [e["name"] for e in spec["end_to_end"]] \
        == ["setup_s", "work_per_s", "latency_p50_s", "peak_rss_mb"]
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
