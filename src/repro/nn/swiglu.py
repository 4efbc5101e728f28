"""SwiGLU feed-forward block (paper Section V-B, after Llama 3)."""

from __future__ import annotations

import numpy as np

from ..kernels import fused_swiglu_forward, kernels_enabled
from ..tensor import Tensor
from .linear import Linear
from .module import Module

__all__ = ["SwiGLU"]


class SwiGLU(Module):
    """``down( silu(gate(x)) * up(x) )`` — three projections, 3·d·f params."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.gate = Linear(dim, hidden_dim, bias=False, rng=rng)
        self.up = Linear(dim, hidden_dim, bias=False, rng=rng)
        self.down = Linear(hidden_dim, dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if kernels_enabled():
            return fused_swiglu_forward(x, self.gate.weight, self.up.weight,
                                        self.down.weight)
        return self.down(self.gate(x).silu() * self.up(x))
