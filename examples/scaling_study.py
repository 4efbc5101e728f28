"""SWiPe scaling study: run the distributed training engine on the
simulated cluster, inspect the metered communication, execute one
attention under WP x SP sharding, and print the analytical full-machine
projections (Tables II/III, Figure 4, time to train).

    python examples/scaling_study.py        (~1 minute)
"""

import numpy as np

from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.model import TABLE_II, AerisConfig, ParallelLayout, count_parameters
from repro.parallel import (RankTopology, SimCluster, SwipeEngine,
                            swipe_window_attention)
from repro.perf import (
    AURORA,
    CommModel,
    estimate_performance,
    scaling_efficiency,
    strong_scaling_wp,
    time_to_train,
    weak_scaling_series,
)
from repro.tensor import Tensor, no_grad


def simulated_training_demo() -> None:
    """A SWiPe training step on a DP x PP x WP x SP layout of the
    simulated cluster, with byte-metered collectives.  The step runs DP
    and PP across ranks and each attention in one process; the WP x SP
    attention of paper Fig. 2 then runs on its own, on block 0's weights."""
    print("== Simulated SWiPe training step (tiny model) ==")
    archive = SyntheticReanalysis(ReanalysisConfig(
        height=16, width=32, train_years=0.3, val_years=0.1,
        test_years=0.1, seed=0, spinup_steps=80))
    config = AerisConfig(
        name="demo", height=16, width=32, channels=9, forcing_channels=3,
        dim=32, heads=4, ffn_dim=64, swin_layers=2, blocks_per_layer=2,
        window=(4, 4), time_freqs=8,
        layout=ParallelLayout(wp=4, wp_grid=(2, 2), pp=4, sp=2, gas=2))
    topo = RankTopology(dp=2, pp=4, wp_grid=(2, 2), sp=2)
    engine = SwipeEngine(config, archive, topo, lr=1e-3, seed=0)
    print(f"  topology: DP={topo.dp} x PP={topo.pp} x WP={topo.wp} x "
          f"SP={topo.sp} = {topo.world_size} ranks on {topo.nodes} nodes")

    idx = archive.split_indices("train")[:8]
    cond, residual, forc = archive.training_batch(
        idx, archive.state_normalizer(), archive.residual_normalizer(),
        archive.forcing_normalizer())
    x_t, t, v = engine.make_training_pairs(residual)
    loss = engine.train_step(x_t, t, v, cond, forc, gas=2)
    print(f"  loss: {loss:.4f}")
    stats = engine.cluster.stats
    for prim in ("p2p", "allreduce", "allgather"):
        print(f"  {prim:10s}: {stats.total_bytes(prim) / 1e6:8.2f} MB "
              f"({'PP activations' if prim == 'p2p' else 'DP gradients' if prim == 'allreduce' else 'ZeRO-1 params'})")
    for shard in range(topo.dp):
        print(f"  ZeRO-1 Adam moments on DP rank {shard}: "
              f"{engine.optimizer.state_bytes_on(shard) / 1e6:.3f} MB")

    # Block 0's attention, sharded over WP windows x SP tokens (Fig. 2).
    block = engine.model.layers[0].blocks[0]
    with no_grad():
        h = engine.model.embed_stage(Tensor(x_t[:2]), Tensor(cond[:2]),
                                Tensor(forc[:2]))
        single = block.attend(h).numpy()
    cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
    sharded = swipe_window_attention(h.numpy(), block.attn, config.window,
                                     topo, cluster=cluster,
                                     shifted=block.shifted)
    assert np.array_equal(sharded, single)
    # 4·M·(SP−1)·WP: M = b·s·h/SP/WP, booked in BF16, moved here in FP32
    m = CommModel(config, AURORA, topo).alltoall_message_bytes(
        len(h.data)) * sharded.itemsize // 2
    predicted = 4 * m * (topo.sp - 1) * topo.wp
    moved = cluster.stats.total_bytes("alltoall")
    assert moved == predicted
    print(f"  WP x SP attention (block 0): array_equal to one process; "
          f"all-to-all {moved:,} B = CommModel {predicted:,} B")


def full_machine_projections() -> None:
    print("\n== Full-machine projections (analytical model; paper: ~15 h "
          "to 3M samples) ==")
    for name, cfg in TABLE_II.items():
        if name.endswith("(L)"):
            continue
        lay = cfg.layout
        dp = {"1.3B": 40, "13B": 30, "40B": 14, "80B": 5}[name]
        gbs = dp * lay.gas
        topo = RankTopology(dp=dp, pp=lay.pp, wp_grid=lay.wp_grid, sp=lay.sp)
        est = estimate_performance(cfg, AURORA, topo, gbs=gbs)
        print(f"  {name:5s} ({count_parameters(cfg) / 1e9:5.1f}B params, "
              f"{est.nodes:6d} nodes): {est.images_per_sec:7.1f} img/s, "
              f"{est.ef_sustained:5.2f} EF sustained, MFU "
              f"{est.mfu * 100:4.1f}%, "
              f"{time_to_train(est.images_per_sec):5.1f} h to 3M samples")

    cfg = TABLE_II["40B"]
    print("\n  40B weak scaling (paper: 95.5% at 10,080 nodes):")
    series = weak_scaling_series(cfg, AURORA, [1, 2, 4, 8, 14])
    for est, eff in zip(series, scaling_efficiency(series)):
        print(f"    {est.nodes:6d} nodes: {est.images_per_sec:6.1f} img/s "
              f"({eff * 100:5.1f}%)")
    print("\n  40B WP strong scaling (paper: 100/87/64%):")
    series = strong_scaling_wp(cfg, AURORA, 140, [(6, 6), (8, 8), (12, 12)])
    for est, eff in zip(series, scaling_efficiency(series)):
        print(f"    WP={est.nodes // 20:4d}: {est.images_per_sec:6.2f} img/s "
              f"({eff * 100:5.1f}%)")


if __name__ == "__main__":
    simulated_training_demo()
    full_machine_projections()
