"""Training: the one training engine and its constructors, and (atomic,
resumable) checkpointing."""

from .checkpoint import (CheckpointCorruption, CheckpointError,
                         checkpoint_lineage, list_checkpoints,
                         newest_valid_checkpoint, prune_checkpoints,
                         read_sharded_checkpoint, write_sharded_checkpoint)
from .finetune import MultistepConfig, MultistepFinetuner
from .guard import StepGuard
from .trainer import Batch, Trainer, TrainerConfig, TrainingEngine

__all__ = ["Trainer", "TrainerConfig", "TrainingEngine", "Batch",
           "CheckpointError", "CheckpointCorruption",
           "write_sharded_checkpoint", "read_sharded_checkpoint",
           "list_checkpoints", "prune_checkpoints", "checkpoint_lineage",
           "newest_valid_checkpoint", "StepGuard",
           "MultistepFinetuner", "MultistepConfig"]
