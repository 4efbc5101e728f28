"""SWiPe ablations (paper Section V-A claims + DESIGN.md design choices).

Measures, on the simulated cluster and the analytical models:
* WP on/off: all-to-all message size, activation memory, per-node I/O;
* round-robin vs blocked window distribution: shift-exchange volume;
* 1F1B vs GPipe vs zero-bubble: bubble fraction and activation residency;
* separated I/O+embedding pipeline stages (PP = L + 2) vs fused.
"""

import numpy as np
from conftest import write_result

from repro.data import ShardedWindowLoader
from repro.model import TABLE_II
from repro.parallel import (
    DomainSharding,
    RankTopology,
    SimCluster,
    WindowSharding,
    shift_owner_change_bytes,
)
from repro.parallel.domain_parallel import blocked_assignment
from repro.perf import (
    AURORA,
    CommModel,
    MemoryModel,
    bubble_fraction,
    max_in_flight,
    schedule_1f1b,
    schedule_gpipe,
    stage_forward_flops,
)

CFG = TABLE_II["40B"]


def run_ablations():
    report = {}
    # -- WP effect on message size / activation memory -----------------------
    for wp_grid in [(1, 1), (2, 2), (6, 6)]:
        wp = wp_grid[0] * wp_grid[1]
        topo = RankTopology(dp=2, pp=CFG.layout.pp, wp_grid=wp_grid, sp=12)
        comm = CommModel(CFG, AURORA, topo)
        mem = MemoryModel(CFG, topo)
        report[f"wp{wp}"] = {
            "alltoall_MB": comm.alltoall_message_bytes(1) / 1e6,
            "activation_GB": mem.activation_bytes_per_rank(1) / 1e9,
            "grad_allreduce_MB": comm.grad_allreduce_bytes() / 1e6,
        }
    # -- sharded I/O ---------------------------------------------------------
    fields = np.zeros((2, 24, 48, 9), dtype=np.float32)
    loader = ShardedWindowLoader(fields, window=(4, 4), wp_grid=(2, 2))
    for rank in range(4):
        loader.load(0, rank)
    full = loader.load_full(0).nbytes
    report["io"] = {"full_read_KB": full / 1e3,
                    "per_rank_KB": int(loader.bytes_read[0]) / 1e3}
    # -- round-robin vs blocked shift traffic ----------------------------------
    moved_rr = shift_owner_change_bytes(
        WindowSharding((24, 48), (4, 4), (2, 2)), 4)
    moved_blocked = shift_owner_change_bytes(
        WindowSharding((24, 48), (4, 4), (2, 2),
                       blocked_assignment(6, 12, (2, 2))), 4)
    report["shift"] = {"round_robin_bytes": moved_rr,
                       "blocked_bytes": moved_blocked}
    # -- schedules ------------------------------------------------------------
    pp, gas = CFG.layout.pp, CFG.layout.gas
    report["schedule"] = {
        "bubble_1f1b": bubble_fraction(pp, gas, "1f1b"),
        "bubble_gpipe": bubble_fraction(pp, gas, "gpipe"),
        "bubble_zero": bubble_fraction(pp, gas, "zero-bubble"),
        "inflight_1f1b": max_in_flight(schedule_1f1b(pp, gas)),
        "inflight_gpipe": max_in_flight(schedule_gpipe(pp, gas)),
    }
    # -- separated vs fused I/O + embedding stages -------------------------------
    # The pipeline's steady-state period is set by its slowest stage.  With
    # I/O fused into the first compute stage, every slot pays the data-load
    # latency (modeled as 20% of an interior stage's compute — the paper's
    # point is that this latency "propagates as pipeline bubbles across all
    # stages").  Separated (PP = L + 2), the I/O stage is nearly free and
    # overlaps with the warmup phase, at the cost of two extra slots of
    # pipeline depth.
    interior = float(stage_forward_flops(CFG, 1))
    t_io = 0.2 * interior
    sep_time = (gas + (CFG.swin_layers + 2) - 1) * interior
    fused_time = (gas + CFG.swin_layers - 1) * (interior + t_io)
    report["stages"] = {"separated": sep_time, "fused": fused_time,
                        "ratio": fused_time / sep_time}
    # -- WP vs domain parallelism (halo exchange) ----------------------------
    # Unshifted window attention: WP needs zero exchange; domain sharding is
    # also free when tiles align with windows — but the *shifted* pass makes
    # domain parallelism pay a halo + two re-sharding synchronizations per
    # block, while WP's round-robin exchange is the batched owner swap.
    image = np.zeros((1, 24, 48, 64), dtype=np.float32)
    wp = WindowSharding((24, 48), (4, 4), (2, 2))
    dom = DomainSharding((24, 48), (4, 4), (2, 2))
    cl_wp, cl_dom = SimCluster(4), SimCluster(4)
    wp.parallel_apply(image, lambda s: s, cluster=cl_wp, shifted=True)
    dom.apply_windowed(image, lambda s: s, shifted=True, cluster=cl_dom)
    report["domain"] = {
        "wp_shift_bytes": cl_wp.stats.total_bytes(),
        "halo_shift_bytes": cl_dom.stats.total_bytes(),
        "resharding_points": dom.resharding_points_per_block(shifted=True),
    }
    return report


def build_report(r) -> str:
    lines = ["SWiPe ablations (40B configuration unless noted)"]
    lines.append("\n[WP] per-rank all-to-all message / activation memory "
                 "(micro-batch 1):")
    for key in ("wp1", "wp4", "wp36"):
        d = r[key]
        lines.append(f"  WP={key[2:]:>3s}: alltoall {d['alltoall_MB']:9.1f} MB"
                     f" | activations {d['activation_GB']:7.2f} GB"
                     f" | grad allreduce {d['grad_allreduce_MB']:9.1f} MB")
    lines.append("  paper: WP divides message size and activation memory; "
                 "allreduce unchanged")
    lines.append(f"\n[I/O] full image read {r['io']['full_read_KB']:.1f} KB "
                 f"vs per-rank sharded read {r['io']['per_rank_KB']:.1f} KB "
                 "(WP=4)")
    lines.append(f"\n[shift] owner-change bytes per half-window shift: "
                 f"round-robin {r['shift']['round_robin_bytes']} vs blocked "
                 f"{r['shift']['blocked_bytes']}")
    s = r["schedule"]
    lines.append(f"\n[schedule] bubble: 1F1B {s['bubble_1f1b']:.3f} = GPipe "
                 f"{s['bubble_gpipe']:.3f} > zero-bubble "
                 f"{s['bubble_zero']:.3f}; in-flight microbatches: 1F1B "
                 f"{s['inflight_1f1b']} vs GPipe {s['inflight_gpipe']}")
    st = r["stages"]
    lines.append(f"\n[stages] fused-I/O pipeline costs {st['ratio']:.3f}x "
                 "the separated PP = L + 2 design")
    d = r["domain"]
    lines.append(f"\n[domain parallelism] shifted-pass exchange: WP "
                 f"{d['wp_shift_bytes']} B (batched owner swap, 0 resharding"
                 f" points) vs halo {d['halo_shift_bytes']} B + "
                 f"{d['resharding_points']} resharding synchronizations per "
                 "block")
    return "\n".join(lines) + "\n"


def test_swipe_ablation(benchmark):
    r = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    write_result("swipe_ablation.txt", build_report(r), data=r)
    # WP divides alltoall message and activation memory by WP.
    assert r["wp4"]["alltoall_MB"] == r["wp1"]["alltoall_MB"] / 4
    assert r["wp36"]["activation_GB"] < r["wp1"]["activation_GB"] / 35
    # ... but gradient allreduce volume is unchanged (paper claim).
    assert r["wp36"]["grad_allreduce_MB"] == r["wp1"]["grad_allreduce_MB"]
    # Sharded I/O reads exactly 1/WP of the image per rank.
    assert r["io"]["per_rank_KB"] * 4 == r["io"]["full_read_KB"]
    # 1F1B's advantage is memory, not bubble.
    s = r["schedule"]
    assert s["bubble_1f1b"] == s["bubble_gpipe"]
    assert s["bubble_zero"] < s["bubble_1f1b"]
    assert s["inflight_1f1b"] < s["inflight_gpipe"]
    # The PP = L + 2 stage separation is a win.
    assert r["stages"]["ratio"] > 1.0
    # Domain parallelism pays resharding synchronizations WP avoids.
    assert r["domain"]["resharding_points"] > 0
    assert r["domain"]["halo_shift_bytes"] > 0
