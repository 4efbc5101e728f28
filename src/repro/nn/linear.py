"""Dense layers."""

from __future__ import annotations

import numpy as np

from ..kernels import fused_linear, kernels_enabled
from ..tensor import Tensor
from .init import scaled_init_std, trunc_normal, zeros
from .module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis.

    Weights are stored ``(in_features, out_features)`` so the forward pass is
    a single matmul on C-contiguous activations (cache-friendly; see the
    hpc-parallel guide on stride effects).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None,
                 init_std: float | None = None, zero_init: bool = False):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng(0)
        if zero_init:
            weight = zeros((in_features, out_features))
        else:
            std = init_std if init_std is not None else scaled_init_std(in_features)
            weight = trunc_normal((in_features, out_features), std, rng)
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if kernels_enabled():
            return fused_linear(x, self.weight, self.bias)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
