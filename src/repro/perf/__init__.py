"""Analytical performance model (paper Section VI-D) for Tables II/III and
Figure 4."""

from .comm_model import CommModel
from .flops import (
    forward_flops_per_block_token,
    forward_flops_per_sample,
    stage_forward_flops,
    training_flops_per_sample,
)
from .machine import AURORA, LUMI, Machine
from .memory import CHECKPOINT_RECOMPUTE_OVERHEAD, MemoryModel
from .pipeline_model import (
    Event,
    bubble_fraction,
    max_in_flight,
    schedule_1f1b,
    schedule_gpipe,
    schedule_zb_h1,
    simulate_schedule,
    simulate_timeline,
)
from .tradeoff import CheckpointingPlan, checkpointing_plan, time_to_train
from .scaling import (
    KERNEL_EFF_MAX,
    SATURATION_TOKENS,
    PerfEstimate,
    estimate_performance,
    kernel_efficiency,
    scaling_efficiency,
    step_terms,
    strong_scaling_gas,
    strong_scaling_wp,
    weak_scaling_series,
)

__all__ = [
    "Machine", "AURORA", "LUMI",
    "forward_flops_per_sample", "training_flops_per_sample",
    "forward_flops_per_block_token", "stage_forward_flops",
    "CommModel", "MemoryModel", "CHECKPOINT_RECOMPUTE_OVERHEAD",
    "bubble_fraction", "schedule_gpipe", "schedule_1f1b", "schedule_zb_h1",
    "simulate_schedule", "simulate_timeline", "max_in_flight", "Event",
    "PerfEstimate", "estimate_performance", "kernel_efficiency",
    "step_terms", "weak_scaling_series", "strong_scaling_gas",
    "strong_scaling_wp",
    "scaling_efficiency", "KERNEL_EFF_MAX", "SATURATION_TOKENS",
    "time_to_train", "checkpointing_plan", "CheckpointingPlan",
]
