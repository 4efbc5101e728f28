"""End-to-end health monitoring: a chaos training run plus a serving
burst under the full observability stack — flight recorder, health
detectors, alert reconciliation, terminal dashboard, and exporters.

Everything runs inside ``obs.monitored()``: the elastic supervisor
trains through a seeded fault plan (a bit flip, a dropped transfer, a
straggler, a rank death), then scores the recovered weights on held-out
data, while the health monitor watches loss, grad norms, fault meters,
and serve SLOs.  At the end the fired alerts are
reconciled against the injector's ledger (every injected fault class
must have alerted; nothing else may have), the dashboard is rendered,
and the telemetry is exported for offline reading::

    python examples/monitor_training.py --out /tmp/monitor
    python tools/obs_dashboard.py --metrics /tmp/monitor/metrics.json \\
        --flight /tmp/monitor/flight.jsonl

(~2 minutes)
"""

import argparse
import os

from repro import obs, quickstart_components
from repro.model import AerisConfig
from repro.obs import (TraceReport, health_check, render_dashboard,
                       write_events_jsonl, write_metrics_json,
                       write_prometheus)
from repro.parallel import RankTopology
from repro.resilience import BitFlip, Drop, FailStop, FaultPlan, Straggle
from repro.resilience.supervisor import ElasticSupervisor, SupervisorConfig
from repro.serve import ForecastRequest, ForecastService, ServiceConfig

MICRO = AerisConfig(name="micro", height=16, width=32, channels=9,
                    forcing_channels=3, dim=16, heads=2, ffn_dim=32,
                    swin_layers=1, blocks_per_layer=1, window=(4, 4),
                    time_freqs=8)


def chaos_train(archive, checkpoint_root: str):
    """Five supervised steps through one fault of every class."""
    topo = RankTopology(dp=2, pp=MICRO.pp_stages, wp_grid=(1, 1), sp=1)
    dead_rank = topo.rank_of(1, 1, 0, 0)
    plan = FaultPlan(
        events=(BitFlip(step=1, primitive="allreduce", nth=0),
                Drop(step=2, primitive="p2p", nth=1),
                Straggle(step=2, primitive="*", nth=3, delay_s=0.03),
                FailStop(rank=dead_rank, step=3)),
        seed=0)
    sup = ElasticSupervisor(
        MICRO, archive, topo,
        SupervisorConfig(seed=0, global_batch=8, gas=2, save_every=1,
                         checkpoint_root=checkpoint_root,
                         max_restarts=4),
        fault_plan=plan)
    sup.run(5)
    return sup


def serve_burst(archive, trainer):
    """A small mixed-tier burst so the serve detectors see traffic."""
    service = ForecastService(trainer.forecaster(),
                              config=ServiceConfig(n_workers=2))
    ic = int(archive.split_indices("test")[0])
    state0 = archive.fields[ic]
    burst = [ForecastRequest(init_state=state0, n_steps=2, n_members=2,
                             tier="standard", seed=k, start_index=ic,
                             arrival_s=0.1 * k) for k in range(3)]
    service.run(burst)
    return service


def main() -> None:
    parser = argparse.ArgumentParser(
        description="chaos train + serve burst under full monitoring")
    parser.add_argument("--out", default="monitor_out",
                        help="telemetry export directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    archive, trainer = quickstart_components(height=16, width=32,
                                             train_years=0.3, seed=0,
                                             test_years=0.1)
    trainer.fit(30)  # a quick warm model for the serving burst

    with obs.monitored() as m:
        print("Chaos training (1 bit flip, 1 drop, 1 straggler, "
              "1 rank death) ...")
        sup = chaos_train(archive, os.path.join(args.out, "ckpt"))
        print(f"  injected: {dict(sup.injector.injected)}")
        print(f"  held-out loss after recovery: {sup.validation_loss():.4f}")

        print("Serving burst ...")
        serve_burst(archive, trainer)

        print("Reconciling alerts against the fault ledger ...")
        report = TraceReport(m.tracer, m.registry)
        result = report.run(health_check, m.monitor, sup.injector)
        for fault, row in result["per_fault"].items():
            mark = "ok" if row["match"] else "MISMATCH"
            print(f"  {fault:>10}: injected x{row['injected']}, "
                  f"alert {row['alert_kind']} "
                  f"{'fired' if row['alerted'] else 'quiet'} [{mark}]")
        if not result["agrees"]:
            raise SystemExit("alert fidelity check FAILED")

        panel = render_dashboard(plan_caches={})
        print()
        print(panel)

        print(f"Exporting telemetry to {args.out}/ ...")
        write_prometheus(m.registry, os.path.join(args.out,
                                                  "metrics.prom"))
        write_metrics_json(m.registry, os.path.join(args.out,
                                                    "metrics.json"))
        write_events_jsonl(m.recorder.events(),
                           os.path.join(args.out, "flight.jsonl"))
        with open(os.path.join(args.out, "dashboard.txt"), "w") as fh:
            fh.write(panel)
        alerts = m.monitor.alerts.summary()
        print(f"  {len(m.recorder)} flight events, "
              f"{alerts['total_firings']} alert firings "
              f"({len(alerts['alerts'])} after dedup)")


if __name__ == "__main__":
    main()
