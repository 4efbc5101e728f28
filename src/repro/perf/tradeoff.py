"""Time-to-solution and checkpointing trade-offs.

Two paper claims live here:

* "At this pace [50 samples/s], it would take approximately 15 hours to
  complete training for 3M samples" — :func:`time_to_train`;
* WP "lowers activation memory usage, potentially eliminating the need for
  activation checkpointing" (which costs ~1/3 recomputation) —
  :func:`checkpointing_plan` decides, for a layout, whether checkpointing
  is required on the machine and what throughput factor that implies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import AerisConfig
from ..parallel.topology import RankTopology
from .machine import Machine
from .memory import CHECKPOINT_RECOMPUTE_OVERHEAD, MemoryModel

__all__ = ["time_to_train", "checkpointing_plan", "CheckpointingPlan"]

#: Samples of one training run ("complete training for 3M samples").
TRAIN_IMAGES = 3_000_000


def time_to_train(images_per_sec: float) -> float:
    """Wall-clock hours to see :data:`TRAIN_IMAGES` at a sustained rate."""
    if images_per_sec <= 0:
        raise ValueError("throughput must be positive")
    return TRAIN_IMAGES / images_per_sec / 3600.0


@dataclass(frozen=True)
class CheckpointingPlan:
    """Whether activation checkpointing is needed, and its cost."""

    required: bool
    activation_gb: float
    budget_gb: float
    throughput_factor: float   # multiply images/s by this

    @property
    def recompute_overhead(self) -> float:
        return CHECKPOINT_RECOMPUTE_OVERHEAD if self.required else 0.0


def checkpointing_plan(config: AerisConfig, topology: RankTopology,
                       machine: Machine, micro_batch: int = 1
                       ) -> CheckpointingPlan:
    """Decide checkpointing from the memory model.

    If the un-checkpointed footprint exceeds the tile's memory (with 10%
    headroom), full activation checkpointing is assumed, costing
    ~1/3 extra recomputation (paper Section V-A citing Korthikanti et al.).
    """
    mem = MemoryModel(config, topology)
    budget = machine.tile_memory_gb
    fits_plain = mem.fits(micro_batch, budget, checkpointing=False)
    if fits_plain:
        return CheckpointingPlan(
            required=False,
            activation_gb=mem.activation_bytes_per_rank(micro_batch) / 1e9,
            budget_gb=budget, throughput_factor=1.0)
    if not mem.fits(micro_batch, budget, checkpointing=True):
        raise ValueError(
            f"{config.name} does not fit {machine.name} even with "
            "checkpointing; increase WP/PP")
    return CheckpointingPlan(
        required=True,
        activation_gb=mem.activation_bytes_per_rank(
            micro_batch, checkpointing=True) / 1e9,
        budget_gb=budget,
        throughput_factor=1.0 / (1.0 + CHECKPOINT_RECOMPUTE_OVERHEAD))
