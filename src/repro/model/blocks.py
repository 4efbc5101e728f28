"""AERIS transformer blocks: pre-RMSNorm, shifted-window attention with
axial 2D RoPE, SwiGLU, and adaLN diffusion-time conditioning (Figure 3)."""

from __future__ import annotations

import numpy as np

from ..kernels import (
    _tape_free,
    fused_gate_residual,
    kernels_enabled,
    plan_merge,
    plan_partition,
    rope_tables,
    window_plan,
)
from ..nn import (
    AdaLNModulation,
    Module,
    ModuleList,
    MultiHeadAttention,
    RMSNorm,
    SwiGLU,
)
from ..tensor import Tensor
from .config import AerisConfig
from .windows import cyclic_shift, window_merge, window_partition

__all__ = ["SwinBlock", "SwinLayer"]


def _gated_residual(x: Tensor, branch: Tensor, gamma: Tensor) -> Tensor:
    """``x + branch · gamma``, the adaLN gate ``gamma`` (B, D) broadcast over
    the token axes.  ``branch`` is a sub-layer output nobody else holds: the
    inference kernel builds the sum in its memory; ``x`` is only read."""
    if _tape_free():    # in place: only this caller knows it owns `branch`
        return Tensor(fused_gate_residual(x.data, branch.data, gamma.data))
    if kernels_enabled():
        return fused_gate_residual(x, branch, gamma)
    extra = branch.ndim - gamma.ndim
    shape = (gamma.shape[0],) + (1,) * extra + (gamma.shape[-1],)
    return x + branch * gamma.reshape(shape)


class SwinBlock(Module):
    """One transformer block operating on the ``(B, H, W, D)`` token grid.

    ``shifted`` blocks roll the grid by half a window before partitioning
    ("shifted every other layer"), which is what gives the stack a global
    receptive field without global attention.
    """

    def __init__(self, config: AerisConfig, shifted: bool,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        self.shifted = shifted
        self.window = config.window
        self.shift = (config.window[0] // 2, config.window[1] // 2)
        self.norm_attn = RMSNorm(config.dim)
        self.norm_ffn = RMSNorm(config.dim)
        self.attn = MultiHeadAttention(config.dim, config.heads, rng=rng)
        self.ffn = SwiGLU(config.dim, config.ffn_dim, rng=rng)
        self.ada_attn = AdaLNModulation(config.dim, config.dim, rng=rng)
        self.ada_ffn = AdaLNModulation(config.dim, config.dim, rng=rng)
        # Cached process-wide: every block of every model shares one pair of
        # read-only tables per (window, head_dim).
        self.rope_cos, self.rope_sin = rope_tables(
            config.window, config.head_dim)

    def attend(self, h: Tensor) -> Tensor:
        """Shift → partition → window attention → merge → unshift.

        On the planned path the shift+partition (and merge+unshift)
        round-trips collapse to one cached-index gather each.
        """
        if kernels_enabled():
            plan = window_plan((h.shape[1], h.shape[2]), self.window,
                               self.shift if self.shifted else (0, 0))
            windows = plan_partition(h, plan)
            windows = self.attn(windows, self.rope_cos, self.rope_sin)
            return plan_merge(windows, plan)
        if self.shifted:
            h = cyclic_shift(h, self.shift)
        windows = window_partition(h, self.window)
        windows = self.attn(windows, self.rope_cos, self.rope_sin)
        h = window_merge(windows, (h.shape[1], h.shape[2]), self.window)
        if self.shifted:
            h = cyclic_shift(h, self.shift, reverse=True)
        return h

    def forward(self, x: Tensor, t_emb: Tensor) -> Tensor:
        alpha, beta, gamma = self.ada_attn(t_emb)
        h = self.norm_attn(x, alpha, beta)
        x = _gated_residual(x, self.attend(h), gamma)

        alpha, beta, gamma = self.ada_ffn(t_emb)
        h = self.norm_ffn(x, alpha, beta)
        return _gated_residual(x, self.ffn(h), gamma)


class SwinLayer(Module):
    """One Swin layer: ``blocks_per_layer`` transformer blocks with the
    shift alternating across the *global* block index (so a pipeline stage
    maps to one Swin layer, as in PP = L + 2)."""

    def __init__(self, config: AerisConfig, layer_index: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.blocks = ModuleList([
            SwinBlock(config,
                      shifted=bool((layer_index * config.blocks_per_layer + b) % 2),
                      rng=rng)
            for b in range(config.blocks_per_layer)
        ])

    def forward(self, x: Tensor, t_emb: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x, t_emb)
        return x
