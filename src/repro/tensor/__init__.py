"""NumPy autograd engine with FLOP accounting and emulated-BF16 matmuls."""

from .bf16 import autocast_bf16, bf16_matmul_enabled, round_bf16
from .flops import FlopCounter, add_flops, count_flops, flops_enabled
from .workspace import WorkspaceArena, arena
from .tensor import (
    Tensor,
    concat,
    is_grad_enabled,
    no_grad,
    stack,
)

__all__ = [
    "Tensor", "concat", "stack",
    "no_grad", "is_grad_enabled",
    "FlopCounter", "count_flops", "add_flops", "flops_enabled",
    "round_bf16", "autocast_bf16", "bf16_matmul_enabled",
    "WorkspaceArena", "arena",
]
