"""Acceptance tests for the observability tentpole: a toy SWiPe run
(PP=4, 4 microbatches) exports a valid Chrome trace with per-rank 1F1B
stage spans, and ``TraceReport`` shows observed bubble fraction and
collective bytes agreeing with the :mod:`repro.perf` predictions."""

import ast
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.obs.report
from repro import obs
from repro.model import count_parameters
from repro.parallel import (CommStats, RankTopology, SwipeEngine, comm_check,
                            pipeline_check)
from repro.perf import AURORA, CommModel, bubble_fraction
from repro.perf.pipeline_model import schedule_1f1b, simulate_timeline
from repro.resilience import resilience_check, sdc_check
from repro.serve import deploy_check, serve_check
from tests.clock import StepClock
from tests.train.test_trainer import TINY16

GAS = 4  # microbatches: >= 4 per the acceptance criterion


@pytest.fixture(autouse=True)
def _observability_off():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def traced_run(tiny_archive):
    """One traced SWiPe step: returns (tracer, registry, engine, topo)."""
    obs.disable()
    tracer, registry = obs.enable()
    try:
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        engine = SwipeEngine(TINY16, tiny_archive, topo, lr=1e-3, seed=0)
        idx = tiny_archive.split_indices("train")[:8]
        cond, residual, forc = tiny_archive.training_batch(
            idx, tiny_archive.state_normalizer(),
            tiny_archive.residual_normalizer(),
            tiny_archive.forcing_normalizer())
        x_t, t, v = engine.make_training_pairs(residual)
        engine.train_step(x_t, t, v, cond, forc, gas=GAS)
    finally:
        obs.disable()
    return tracer, registry, engine, topo


class TestChromeTraceFromSwipe:
    def test_trace_is_valid_and_shows_per_rank_1f1b_spans(self, traced_run,
                                                          tmp_path):
        tracer, _, _, topo = traced_run
        path = tmp_path / "swipe_trace.json"
        tracer.write_chrome(str(path))
        events = json.loads(path.read_text())
        x_events = [e for e in events if e["ph"] == "X"]
        assert x_events, "no complete events exported"
        assert all(e["dur"] >= 0 and "ts" in e and "tid" in e
                   for e in x_events)
        # One per-rank 1F1B track per (replica, stage).
        tracks = {e["args"]["name"]: e["tid"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        rank_tracks = {name for name in tracks if "/rank" in name}
        assert len(rank_tracks) == topo.dp * topo.pp
        # Every stage ran each microbatch forward and backward.
        stage_events = [e for e in x_events if e.get("cat") == "pp-1f1b"]
        assert len(stage_events) == topo.dp * topo.pp * GAS * 2
        phases = {(e["args"]["phase"], e["args"]["stage"],
                   e["args"]["micro"]) for e in stage_events}
        assert len(phases) == topo.pp * GAS * 2  # F and B per (stage, m)

    def test_1f1b_warmup_staircase_visible(self, traced_run):
        """Stage s's first forward starts after stage s-1's (the bubble)."""
        tracer, _, _, topo = traced_run
        spans = [s for s in tracer.select(category="pp-1f1b",
                                          track_prefix="dp0/")
                 if s.attrs["phase"] == "F" and s.attrs["micro"] == 0]
        spans.sort(key=lambda s: s.attrs["stage"])
        assert len(spans) == topo.pp
        starts = [s.start for s in spans]
        assert starts == sorted(starts)
        assert starts[-1] > starts[0]


class TestTraceReportChecks:
    def test_bubble_observed_vs_predicted(self, traced_run):
        tracer, registry, _, topo = traced_run
        report = obs.TraceReport(tracer, registry)
        result = report.run(pipeline_check, pp=topo.pp, n_micro=GAS,
                            track_prefix="dp0/rank")
        assert result["agrees"], result
        assert result["observed_bubble"] == pytest.approx(
            bubble_fraction(topo.pp, GAS), abs=0.02)
        assert result["abs_error_simulated"] < 0.02

    def test_bubble_check_replays_the_named_schedule(self, traced_run):
        """``"zero-bubble"`` replays ZB-H1, not 1F1B, at the measured stage
        costs; an unknown name raises."""
        tracer, registry, _, topo = traced_run
        report = obs.TraceReport(tracer, registry)
        run = dict(pp=topo.pp, n_micro=GAS, track_prefix="dp0/rank")
        one_f_one_b = report.run(pipeline_check, **run)
        zero_bubble = report.run(pipeline_check, schedule="zero-bubble", **run)
        assert zero_bubble["predicted_bubble_simulated"] \
            < one_f_one_b["predicted_bubble_simulated"]
        with pytest.raises(ValueError, match="unknown schedule"):
            report.run(pipeline_check, schedule="interleaved", **run)

    def test_comm_bytes_registry_matches_commstats_exactly(self, traced_run):
        tracer, registry, engine, _ = traced_run
        report = obs.TraceReport(tracer, registry)
        result = report.run(comm_check, engine.cluster.stats)
        assert result["agrees"], result
        assert result["registry_vs_commstats"]  # non-empty
        for series in result["registry_vs_commstats"].values():
            assert series["match"]

    def test_comm_bytes_vs_analytical_model(self, traced_run, tiny_archive):
        """Measured DP-gradient allreduce volume vs the comm model's
        ``grad_allreduce_bytes`` (per stage-rank; × PP × DP for the summed
        meter)."""
        tracer, registry, engine, topo = traced_run
        model = CommModel(TINY16, AURORA, topo)
        predicted = model.grad_allreduce_bytes() * topo.pp * topo.dp
        report = obs.TraceReport(tracer, registry)
        result = report.run(comm_check, engine.cluster.stats,
                            predicted={"allreduce": predicted},
                            rel_tol=0.05)
        assert result["agrees"], result
        # Sanity: the prediction derives from the true parameter count.
        assert predicted == pytest.approx(
            2 * (topo.dp - 1) * 4 * count_parameters(TINY16), rel=0.05)

    def test_report_renders_and_serializes(self, traced_run):
        tracer, registry, engine, topo = traced_run
        report = obs.TraceReport(tracer, registry)
        report.run(pipeline_check, pp=topo.pp, n_micro=GAS,
                   track_prefix="dp0/rank")
        report.run(comm_check, engine.cluster.stats)
        text = report.render()
        assert "pipeline bubble" in text and "OK" in text
        parsed = json.loads(report.to_json())
        assert {c["check"] for c in parsed["checks"]} == {
            "pipeline_bubble", "comm_bytes"}
        assert "metrics" in parsed and "span_summary" in parsed

    def test_registry_recorded_engine_metrics(self, traced_run):
        _, registry, _, topo = traced_run
        assert registry.counter("train.steps").value() == 1
        assert registry.counter("pp.microbatches").total() == topo.dp * GAS
        assert registry.gauge("pp.bubble").value(pipeline="dp0") == \
            pytest.approx(bubble_fraction(topo.pp, GAS), abs=0.02)


#: What seven of the eight ``TraceReport.*_check`` methods of the last
#: commit that had them (5e75d12) returned, and what ``render()`` printed,
#: for the subjects ``golden_report`` builds (the eighth, the autotune
#: plan check, was deleted with ``autotune_check``).
GOLDEN = json.loads(
    Path(__file__).with_name("golden_trace_report.json").read_text())


@pytest.fixture(scope="module")
def golden_report():
    """Every shipped check, run once over hand-built deterministic
    subjects: a PP=2 x M=2 1F1B timeline, fixed counters, stub
    service/controller/injector ledgers."""
    tracer = obs.Tracer(clock=StepClock())
    registry = obs.MetricsRegistry()
    for phase, stage, micro, start, end in simulate_timeline(
            schedule_1f1b(2, 2), 1.0, 2.0)["events"]:
        tracer.add_span(f"{phase}{micro}", start, end, track=f"rank{stage}",
                        category="pp-1f1b", phase=phase, stage=stage,
                        micro=micro)
    tracer.add_span("retry", 0.0, 0.5, track="comm", category="resilience")
    tracer.add_span("dispatch", 1.0, 3.0, track="serve", category="serve")

    stats = CommStats()
    stats.add("allreduce", "inter", 1000)
    stats.add("p2p", "intra", 64)
    registry.counter("comm.bytes").inc(1000, primitive="allreduce",
                                       locality="inter")
    registry.counter("comm.bytes").inc(64, primitive="p2p",
                                       locality="intra")

    injector = SimpleNamespace(injected={
        "flip": 2, "straggler": 1, "failstop": 1, "sdc_gemm": 1,
        "sdc_forecast": 1})
    registry.counter("comm.faults_detected").inc(2, kind="flip")
    registry.histogram("comm.straggler_s").observe(0.02, primitive="p2p")
    registry.counter("resilience.dead_ranks").inc(1)
    registry.counter("resilience.sdc_detected").inc(1, kind="sdc_gemm")
    registry.counter("serve.forecasts_quarantined").inc(1)
    registry.counter("train.step_retries").inc(1, cause="gemm")
    registry.counter("serve.guardrail_reruns").inc(1)

    requests = registry.counter("serve.requests")
    requests.inc(5, event="submitted")
    requests.inc(1, event="rejected")
    requests.inc(3, event="accepted", version="v0")
    requests.inc(2, event="completed", version="v0")
    requests.inc(1, event="timeout", version="v0")
    requests.inc(1, event="accepted", version="v1")
    requests.inc(1, event="completed", version="v1")
    digest = "c0ffee" * 11
    service = SimpleNamespace(
        tally={"submitted": 5, "accepted": 4, "rejected": 1, "completed": 3,
               "timeout": 1, "failed": 0},
        cache=SimpleNamespace(stats=lambda: {"hit_rate": 0.25, "hits": 1,
                                             "misses": 3}),
        versions=SimpleNamespace(
            bindings={"v1": SimpleNamespace(weights_digest=digest)},
            active="v1"))
    registry.counter("deploy.transitions").inc(1, kind="start")
    registry.counter("deploy.transitions").inc(1, kind="promote")
    registry.counter("deploy.shadows").inc(2)
    controller = SimpleNamespace(
        transitions=[{"kind": "start"}, {"kind": "promote"}],
        counts={"shadows": 2, "reassigned": 0}, state="promoted",
        incumbent="v0", candidate="v1", candidate_digest=digest,
        registry=None)

    report = obs.TraceReport(tracer, registry)
    report.run(pipeline_check, pp=2, n_micro=2)
    report.run(comm_check, stats,
               predicted={"allreduce": 1000.0, "p2p": 60.0})
    report.run(resilience_check, injector)
    report.run(sdc_check, injector)
    report.run(serve_check, service)
    report.run(deploy_check, service, controller)
    report.run(obs.health_check, obs.HealthMonitor(clock=StepClock()),
               injector)
    return report


class TestCheckProtocol:
    def test_every_shipped_check_returns_the_uniform_result(self,
                                                            golden_report):
        assert len(golden_report.checks) == 7
        for result in golden_report.checks:
            assert isinstance(result["check"], str) and result["check"]
            assert isinstance(result["agrees"], bool)
            assert result["summary"].strip()

    def test_result_dicts_match_the_method_era_output(self, golden_report):
        """Same keys and values as the deleted methods, plus ``summary``."""
        stripped = [{k: v for k, v in result.items() if k != "summary"}
                    for result in golden_report.checks]
        assert stripped == GOLDEN["checks"]

    def test_render_is_text_identical_to_the_method_era(self, golden_report):
        assert golden_report.render() == GOLDEN["text"]

    def test_fourth_party_check_needs_no_edit_to_report(self, golden_report):
        def budget_check(report, budget, slack=0):
            used = len(report.tracer.spans)
            return {"check": "span_budget", "agrees": used <= budget + slack,
                    "summary": f"span budget: {used}/{budget}\nslack {slack}"}

        report = obs.TraceReport(golden_report.tracer,
                                 golden_report.registry)
        result = report.run(budget_check, 4, slack=1)
        assert result is report.checks[-1] and not result["agrees"]
        assert report.render().splitlines()[:3] == [
            "TraceReport", "  span budget: 10/4", "  slack 1"]
        assert json.loads(report.to_json())["checks"][0]["check"] == \
            "span_budget"

    def test_run_requires_a_registry(self, golden_report):
        report = obs.TraceReport(golden_report.tracer)  # obs is disabled
        with pytest.raises(ValueError, match="no metrics registry"):
            report.run(pipeline_check, pp=2, n_micro=2)

    def test_report_module_imports_only_from_obs(self):
        """Layering: ``obs`` is the bottom layer, so the collector may not
        reach up into the packages whose checks it runs."""
        tree = ast.parse(Path(repro.obs.report.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 1 or node.module == "__future__", \
                    ast.unparse(node)
            elif isinstance(node, ast.Import):
                assert [a.name for a in node.names] == ["json"], \
                    ast.unparse(node)
