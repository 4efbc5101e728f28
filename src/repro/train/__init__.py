"""Training: reference single-process loop and (atomic, resumable)
checkpointing."""

from .checkpoint import (CheckpointCorruption, CheckpointError,
                         checkpoint_lineage, list_checkpoints,
                         newest_valid_checkpoint, prune_checkpoints,
                         read_sharded_checkpoint, write_sharded_checkpoint)
from .finetune import MultistepConfig, MultistepFinetuner
from .guard import StepGuard
from .trainer import Trainer, TrainerConfig, evaluate_validation_loss

__all__ = ["Trainer", "TrainerConfig",
           "CheckpointError", "CheckpointCorruption",
           "write_sharded_checkpoint", "read_sharded_checkpoint",
           "list_checkpoints", "prune_checkpoints", "checkpoint_lineage",
           "newest_valid_checkpoint", "StepGuard", "evaluate_validation_loss",
           "MultistepFinetuner", "MultistepConfig"]
