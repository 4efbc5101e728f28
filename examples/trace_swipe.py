"""Trace a toy SWiPe run and export a Chrome trace + TraceReport.

Runs one distributed (simulated) training step with PP=4 and 4
microbatches under full observability, then:

* writes ``swipe_trace.json`` — open it in ``chrome://tracing`` or
  https://ui.perfetto.dev to see the per-rank 1F1B staircase and its
  bubble;
* writes ``swipe_report.json`` — the ``TraceReport``: its cross-checks of
  the observed bubble fraction / collective bytes against the
  :mod:`repro.perf` analytical model, the span summary and the metrics;
* prints the report, the metrics table and the comm meter.

::

    python examples/trace_swipe.py
"""

import numpy as np

from repro import AerisConfig, obs
from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.model import ParallelLayout
from repro.parallel import (RankTopology, SwipeEngine, comm_check,
                            pipeline_check)
from repro.perf import AURORA, CommModel
from repro.resilience import atomic_write

CONFIG = AerisConfig(
    name="trace-demo", height=16, width=32, channels=9, forcing_channels=3,
    dim=32, heads=4, ffn_dim=64, swin_layers=2, blocks_per_layer=2,
    window=(4, 4), time_freqs=8,
    layout=ParallelLayout(wp=1, wp_grid=(1, 1), pp=4, sp=1, gas=4))


def main() -> None:
    print("Building a toy archive and a DP=2 x PP=4 SWiPe engine ...")
    archive = SyntheticReanalysis(ReanalysisConfig(
        height=16, width=32, train_years=0.3, val_years=0.1, test_years=0.1,
        seed=0, spinup_steps=60))
    topo = RankTopology(dp=2, pp=CONFIG.pp_stages, wp_grid=(1, 1), sp=1)

    with obs.observed() as (tracer, registry):
        engine = SwipeEngine(CONFIG, archive, topo, lr=1e-3, seed=0)
        idx = archive.split_indices("train")[:8]
        cond, residual, forc = archive.training_batch(
            idx, archive.state_normalizer(), archive.residual_normalizer(),
            archive.forcing_normalizer())
        x_t, t, v = engine.make_training_pairs(residual)
        print("Running one SWiPe step (GAS=4 microbatches, traced) ...")
        loss = engine.train_step(x_t, t, v, cond, forc, gas=4)
        print(f"  loss {loss:.3f}")

        tracer.write_chrome("swipe_trace.json")
        print("\nWrote swipe_trace.json — load it in chrome://tracing "
              "(per-rank 1F1B tracks are 'dp*/rank*').")

        report = obs.TraceReport(tracer, registry)
        report.run(pipeline_check, pp=topo.pp, n_micro=4,
                   track_prefix="dp0/rank")
        comm = CommModel(CONFIG, AURORA, topo)
        report.run(
            comm_check, engine.cluster.stats,
            predicted={"allreduce":
                       comm.grad_allreduce_bytes() * topo.pp * topo.dp})
        atomic_write("swipe_report.json", report.to_json())
        print("Wrote swipe_report.json (the TraceReport).")
        print()
        print(report.render())
        print()
        print(registry.as_table())
        print()
        print(engine.cluster.stats.as_table())


if __name__ == "__main__":
    main()
