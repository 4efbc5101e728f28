"""End-to-end performance estimation: throughput, MFU, ExaFLOPS, and the
weak/strong scaling series of Figure 4 and Table III.

Composition::

    t_fwd(stage)  = stage FLOPs / (WP·SP·tile_peak·kernel_eff) + alltoall
    t_bwd         = 2 · t_fwd(compute) + 2 · alltoall
    phase time    = (GAS + PP − 1) · (t_fwd + t_bwd)          # 1F1B
    sustained     = phase + optimizer + gradient allreduce
    peak          = phase                                     # paper's defn

Two constants are calibrated once against the paper's WP strong-scaling
points (Section VII-A) and then used everywhere:

* ``KERNEL_EFF_MAX`` — achievable fraction of peak for large matmuls;
* ``SATURATION_TOKENS`` — tokens/tile at which kernels reach half of that
  (fitted to the WP=36→64 efficiency drop of 100%→87%; the third point,
  WP=144 → 64%, is *predicted* and validated in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import AerisConfig, count_parameters
from ..parallel.topology import RankTopology
from .comm_model import CommModel
from .flops import (forward_flops_per_sample, stage_forward_flops,
                    training_flops_per_sample)
from .machine import Machine
from .pipeline_model import bubble_fraction

__all__ = ["PerfEstimate", "kernel_efficiency", "step_terms",
           "estimate_performance", "weak_scaling_series",
           "strong_scaling_gas", "strong_scaling_wp",
           "KERNEL_EFF_MAX", "SATURATION_TOKENS"]

KERNEL_EFF_MAX = 0.62
SATURATION_TOKENS = 350.0

#: Seconds per 10^9 parameters for the (unsharded-in-time) FP32 optimizer +
#: EMA update on one pipeline stage. Calibrated to the 40B sustained/peak
#: gap of Table III; DP-independent, so it also shapes weak scaling.
OPT_SECONDS_PER_GPARAM = 1.1

#: Effective fraction of the NIC bandwidth realized by the bucketed FP32
#: gradient ring-allreduce (latency/bucketing-dominated). Calibrated
#: together with the constant above; the weak-scaling efficiency (95.5% in
#: the paper) is then a *prediction*.
ALLREDUCE_EFFICIENCY = 0.0375


def kernel_efficiency(tokens_per_tile: float) -> float:
    """Saturating kernel efficiency vs per-tile work."""
    return KERNEL_EFF_MAX * tokens_per_tile / (tokens_per_tile
                                               + SATURATION_TOKENS)


@dataclass(frozen=True)
class PerfEstimate:
    config_name: str
    machine_name: str
    nodes: int
    dp: int
    gbs: int
    step_time_s: float
    images_per_sec: float
    tflops_per_tile: float
    mfu: float
    ef_sustained: float
    ef_peak: float


def step_terms(config: AerisConfig, machine: Machine,
               topology: RankTopology, micro_batch: int,
               flops_per_s: float | None = None
               ) -> tuple[float, float, float, float]:
    """``(t_fwd, t_bwd, t_opt, t_ar)``: one micro-batch's forward and
    backward slot on the busiest rank, and the optimizer and gradient
    allreduce that follow the pipelined phase.

    ``pp == 1`` is the monolithic layout, one rank holding every block;
    otherwise the interior stage dominates (uniform-stage approximation).
    ``flops_per_s`` is a measured per-tile rate standing in for
    ``tile peak × kernel_efficiency``.
    """
    comm = CommModel(config, machine, topology)
    tiles_per_stage = topology.wp * topology.sp
    if flops_per_s is None:
        eff_k = kernel_efficiency(config.seq_len / tiles_per_stage)
        tile_peak = machine.peak_tflops_tile_bf16 * 1e12
        stage_flops_per_s = tiles_per_stage * tile_peak * eff_k
    else:
        stage_flops_per_s = tiles_per_stage * flops_per_s
    if topology.pp == 1:
        stage_flops, blocks = forward_flops_per_sample(config), config.n_blocks
    else:
        stage_flops = max(stage_forward_flops(config, s)
                          for s in range(1, config.pp_stages - 1))
        blocks = config.blocks_per_layer
    t_fwd_compute = stage_flops * micro_batch / stage_flops_per_s
    t_a2a = comm.alltoall_time_per_block(micro_batch) \
        * blocks / 3.0  # model's fwd share of the 12M total
    t_fwd = t_fwd_compute + t_a2a
    t_bwd = 2.0 * t_fwd_compute + 2.0 * t_a2a

    params_per_rank = count_parameters(config) / topology.pp
    t_opt = OPT_SECONDS_PER_GPARAM * params_per_rank / 1e9
    t_ar = (comm.grad_allreduce_bytes()
            / (machine.network_bw_gbs * 1e9 * ALLREDUCE_EFFICIENCY)
            + 2e-4 * topology.dp if topology.dp > 1 else 0.0)
    return t_fwd, t_bwd, t_opt, t_ar


def estimate_performance(config: AerisConfig, machine: Machine,
                         topology: RankTopology, gbs: int,
                         schedule: str = "1f1b",
                         micro_batch: int = 1) -> PerfEstimate:
    """Model one training step at the given layout and global batch size."""
    if gbs % (topology.dp * micro_batch):
        raise ValueError("gbs must be divisible by dp * micro_batch")
    gas = gbs // (topology.dp * micro_batch)
    t_fwd, t_bwd, t_opt, t_ar = step_terms(config, machine, topology,
                                           micro_batch)
    slot = t_fwd + t_bwd
    bubble = bubble_fraction(topology.pp, gas, schedule)
    phase_time = gas * slot / (1.0 - bubble)

    # Outside the pipelined phase: optimizer step + gradient reduction.
    sustained_time = phase_time + t_opt + t_ar
    peak_time = phase_time

    flops_step = training_flops_per_sample(config) * gbs
    tiles = topology.nodes * machine.tiles_per_node
    ef_sustained = flops_step / sustained_time / 1e18
    ef_peak = flops_step / peak_time / 1e18
    tflops_per_tile = ef_sustained * 1e6 / tiles
    mfu = tflops_per_tile / machine.peak_tflops_tile_bf16
    return PerfEstimate(
        config_name=config.name, machine_name=machine.name,
        nodes=topology.nodes, dp=topology.dp, gbs=gbs,
        step_time_s=sustained_time,
        images_per_sec=gbs / sustained_time,
        tflops_per_tile=tflops_per_tile, mfu=mfu,
        ef_sustained=ef_sustained, ef_peak=ef_peak)


def _topology_for(config: AerisConfig, dp: int) -> RankTopology:
    layout = config.layout
    return RankTopology(dp=dp, pp=layout.pp, wp_grid=layout.wp_grid,
                        sp=layout.sp)


def weak_scaling_series(config: AerisConfig, machine: Machine,
                        dp_values: list[int]) -> list[PerfEstimate]:
    """Increase DP (and GBS with it, ``gas`` per replica) at fixed
    model-parallel layout — Figure 4's weak scaling."""
    out = []
    for dp in dp_values:
        topo = _topology_for(config, dp)
        out.append(estimate_performance(config, machine, topo,
                                        gbs=config.layout.gas * dp))
    return out


def strong_scaling_gas(config: AerisConfig, machine: Machine, gbs: int,
                       dp_values: list[int]) -> list[PerfEstimate]:
    """Fixed GBS; more DP replicas mean fewer accumulation steps each —
    bubble grows (Figure 4 top, 'GAS' series)."""
    out = []
    for dp in dp_values:
        if gbs % dp:
            raise ValueError(f"gbs {gbs} not divisible by dp {dp}")
        topo = _topology_for(config, dp)
        out.append(estimate_performance(config, machine, topo, gbs=gbs))
    return out


def strong_scaling_wp(config: AerisConfig, machine: Machine, gbs: int,
                      wp_grids: list[tuple[int, int]]) -> list[PerfEstimate]:
    """Fixed GBS without data parallelism; more window parallelism —
    efficiency falls as per-tile work shrinks (Figure 4 top, 'WP' series)."""
    out = []
    for grid in wp_grids:
        layout = config.layout
        topo = RankTopology(dp=1, pp=layout.pp, wp_grid=grid, sp=layout.sp)
        out.append(estimate_performance(config, machine, topo, gbs=gbs))
    return out


def scaling_efficiency(series: list[PerfEstimate]) -> list[float]:
    """Throughput efficiency of each point relative to perfect scaling
    (throughput proportional to nodes) from the first point."""
    base = series[0]
    out = []
    for e in series:
        ideal = base.images_per_sec * e.nodes / base.nodes
        out.append(e.images_per_sec / ideal)
    return out
