"""Alert fidelity: a seeded chaos run must fire an alert for every
injected fault class, and a matching fault-free run must fire none of
the fault-class alert kinds.  Reconciled via
:meth:`repro.obs.TraceReport.health_check`, the two directions together
guarantee the health monitor neither misses injections nor invents
them."""

import os

import pytest

from repro import obs
from repro.model import AerisConfig
from repro.obs import FAULT_ALERT_KINDS, TraceReport, health_check
from repro.parallel import RankTopology
from repro.resilience import BitFlip, Drop, FailStop, FaultPlan, Straggle
from repro.resilience.supervisor import ElasticSupervisor, SupervisorConfig

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

MICRO = AerisConfig(name="micro", height=16, width=32, channels=9,
                    forcing_channels=3, dim=16, heads=2, ffn_dim=32,
                    swin_layers=1, blocks_per_layer=1, window=(4, 4),
                    time_freqs=8)

TOPO = RankTopology(dp=2, pp=MICRO.pp_stages, wp_grid=(1, 1), sp=1)
DEAD_RANK = TOPO.rank_of(1, 1, 0, 0)

#: One scheduled fault from every comm/rank class in the alert mapping.
#: The compute-domain classes (``sdc_*``) are out of the supervisor's
#: reach — their fidelity is reconciled by ``TraceReport.sdc_check`` in
#: tests/resilience/test_sdc.py and tests/serve/test_guardrails.py; here
#: they must simply stay quiet (health_check enforces that direction).
SUPERVISOR_FAULTS = ("flip", "drop", "straggler", "failstop")
CHAOS_PLAN = FaultPlan(
    events=(BitFlip(step=1, primitive="allreduce", nth=0),
            Drop(step=2, primitive="p2p", nth=1),
            Straggle(step=2, primitive="*", nth=3, delay_s=0.03),
            FailStop(rank=DEAD_RANK, step=3)),
    seed=CHAOS_SEED)


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


def _run(tmp_path, archive, plan, tag, check_injector=True):
    sup = ElasticSupervisor(
        MICRO, archive, TOPO,
        SupervisorConfig(seed=0, global_batch=8, gas=2, save_every=1,
                         checkpoint_root=str(tmp_path / tag),
                         max_restarts=4),
        fault_plan=plan)
    with obs.monitored() as m:
        sup.run(5)
        # Reconcile inside the scope so pull-detected alerts still route
        # into the session's flight recorder and metrics.
        report = TraceReport(m.tracer, m.registry)
        result = report.run(
            health_check, m.monitor, sup.injector if check_injector else None)
    return sup, m, result


class TestAlertFidelity:
    def test_chaos_run_covers_every_fault_class(self, tmp_path,
                                                tiny_archive):
        sup, m, result = _run(tmp_path, tiny_archive, CHAOS_PLAN, "chaos")
        # Every supervisor-reachable class was actually dealt by the
        # injector (otherwise the coverage direction would be vacuous).
        for fault in SUPERVISOR_FAULTS:
            assert sup.injector.injected[fault] > 0, fault
        assert result["agrees"], result["per_fault"]
        for fault, row in result["per_fault"].items():
            assert row["alerted"] == (fault in SUPERVISOR_FAULTS), fault
        # The alerts also landed in the flight recorder for post-mortems.
        assert len(m.recorder.events(kind="alert")) >= len(
            SUPERVISOR_FAULTS)
        # Rank death is page-worthy: critical, not a warning.
        critical = [a for a in m.monitor.alerts.alerts
                    if a.kind == "resilience.rank_failure"]
        assert critical and critical[0].severity == "critical"

    def test_fault_free_run_fires_no_fault_alerts(self, tmp_path,
                                                  tiny_archive):
        sup, m, result = _run(tmp_path, tiny_archive, None, "clean",
                              check_injector=False)
        assert dict(sup.injector.injected) == {}
        # check_injector=False reconciled with injector=None: every
        # fault-class alert kind must be absent on a clean run.
        assert result["agrees"], result["per_fault"]
        fired = set(result["alert_kinds_fired"])
        assert fired.isdisjoint(set(FAULT_ALERT_KINDS.values())), fired
