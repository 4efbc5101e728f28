"""Normalization layers: RMSNorm (the paper replaces LayerNorm with
pre-RMSNorm, after Llama 3) and the adaptive layer norm used for diffusion
time conditioning (values alpha, beta, gamma; DiT-style adaLN)."""

from __future__ import annotations

import numpy as np

from ..kernels import (
    _tape_free,
    fused_layer_norm,
    fused_norm_modulate,
    fused_silu,
    kernels_enabled,
)
from ..tensor import Tensor
from .linear import Linear
from .module import Module, Parameter

__all__ = ["RMSNorm", "LayerNorm", "AdaLNModulation", "modulate"]

#: Variance floor of both norms.
EPS = 1e-6


class RMSNorm(Module):
    """Root-mean-square normalization over the last axis, optionally
    followed by the adaLN scale/shift (:func:`modulate`) — the pair every
    Swin block applies back to back, so the inference path can run them as
    one in-place kernel."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.weight = Parameter(np.ones(dim, dtype=np.float32), name="weight")

    def forward(self, x: Tensor, alpha: Tensor | None = None,
                beta: Tensor | None = None) -> Tensor:
        """Normalize ``x``; given ``alpha`` and ``beta`` (``(batch, dim)``
        each), also :func:`modulate` the result by them."""
        if kernels_enabled():
            return fused_norm_modulate(x, self.weight, EPS, alpha, beta)
        ms = (x * x).mean(axis=-1, keepdims=True)
        inv = (ms + EPS) ** -0.5
        out = x * inv * self.weight
        return out if alpha is None else modulate(out, alpha, beta)


class LayerNorm(Module):
    """Standard layer normalization (kept for baseline comparisons and for
    the final decode norm, which the paper describes as a "simple
    normalization")."""

    def __init__(self, dim: int, elementwise_affine: bool = True):
        super().__init__()
        self.dim = dim
        if elementwise_affine:
            self.weight = Parameter(np.ones(dim, dtype=np.float32), name="weight")
            self.bias = Parameter(np.zeros(dim, dtype=np.float32), name="bias")
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if _tape_free():    # raw-only kernel: the centered copy is the output
            affine = () if self.weight is None \
                else (self.weight.data, self.bias.data)
            return Tensor(fused_layer_norm(x.data, EPS, *affine))
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        out = centered * ((var + EPS) ** -0.5)
        if self.weight is not None:
            out = out * self.weight + self.bias
        return out


class AdaLNModulation(Module):
    """Layer-specific linear producing the adaptive-LN values alpha, beta,
    gamma from the (shared) time embedding, per the paper's Figure 3.

    ``alpha`` scales, ``beta`` shifts the normalized activations, and
    ``gamma`` gates the branch output (adaLN-Zero: initialized to zero so the
    residual branch starts disabled, which is what makes billion-parameter
    diffusion training stable).
    """

    def __init__(self, time_dim: int, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.proj = Linear(time_dim, 3 * dim, rng=rng, zero_init=True)
        self.dim = dim

    def forward(self, t_emb: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (alpha, beta, gamma), each shaped ``(batch, dim)``."""
        d = self.dim
        if _tape_free():    # raw SiLU keeps no sigmoid; slices are views
            raw = self.proj(Tensor(fused_silu(t_emb.data))).data
            return (Tensor(raw[..., 0:d]), Tensor(raw[..., d:2 * d]),
                    Tensor(raw[..., 2 * d:3 * d]))
        raw = self.proj(t_emb.silu())
        return raw[..., 0:d], raw[..., d:2 * d], raw[..., 2 * d:3 * d]


def modulate(x: Tensor, alpha: Tensor, beta: Tensor) -> Tensor:
    """Apply adaptive scale/shift: ``x * (1 + alpha) + beta``.

    ``x`` has token axes between batch and channel; alpha/beta are broadcast
    ``(batch, 1, ..., dim)``.
    """
    extra = x.ndim - alpha.ndim
    shape = (alpha.shape[0],) + (1,) * extra + (alpha.shape[-1],)
    return x * (alpha.reshape(shape) + 1.0) + beta.reshape(shape)
