"""Multi-head scaled-dot-product attention with rotary embedding support.

AERIS applies attention *within* Swin windows: inputs arrive shaped
``(batch, n_windows, tokens, dim)`` and attention never mixes windows.
Queries/keys are rotated by axial-frequency 2D rotary embeddings (paper
Section V-B, "in place of relative positional biases").

The attention core (the part between the qkv and output projections — what
runs between the two Ulysses all-to-alls under sequence parallelism) is a
standalone function so :mod:`repro.parallel.sequence_parallel` can shard it.
"""

from __future__ import annotations

import numpy as np

from ..kernels import (
    _tape_free,
    fused_apply_rotary,
    fused_dot_product_attention,
    kernels_enabled,
)
from ..tensor import Tensor, stack
from .linear import Linear
from .module import Module

__all__ = ["MultiHeadAttention", "dot_product_attention", "apply_rotary"]


def apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate feature pairs of ``x`` by per-token angles.

    Parameters
    ----------
    x:
        ``(..., tokens, head_dim)`` with even ``head_dim``.
    cos, sin:
        ``(tokens, head_dim // 2)`` rotation tables (already combining both
        spatial axes for axial 2D RoPE).
    """
    pairs = x.reshape(*x.shape[:-1], x.shape[-1] // 2, 2)
    x0 = pairs[..., 0]
    x1 = pairs[..., 1]
    c, s = Tensor(cos), Tensor(sin)
    r0 = x0 * c - x1 * s
    r1 = x0 * s + x1 * c
    return stack([r0, r1], axis=-1).reshape(*x.shape)


def dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Softmax attention over the second-to-last axis.

    Shapes: ``(..., tokens, head_dim)`` -> ``(..., tokens, head_dim)``.
    """
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    return scores.softmax(axis=-1) @ v


class MultiHeadAttention(Module):
    """Windowed multi-head attention.

    Parameters
    ----------
    dim:
        Embedding dimension.
    heads:
        Number of attention heads; must divide ``dim``.
    """

    def __init__(self, dim: int, heads: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        if self.head_dim % 2:
            raise ValueError("head_dim must be even for rotary embeddings")
        self.qkv = Linear(dim, 3 * dim, bias=False, rng=rng)
        self.out = Linear(dim, dim, bias=False, rng=rng)

    def forward(self, x: Tensor, rope_cos: np.ndarray | None = None,
                rope_sin: np.ndarray | None = None) -> Tensor:
        """``x``: ``(batch, n_windows, tokens, dim)`` (or any leading axes)."""
        *lead, tokens, dim = x.shape
        qkv = self.qkv(x)                                     # (..., T, 3D)
        tape_free = _tape_free()
        if tape_free:
            # A view of the raw array: no graph nodes to build, and the
            # core hands a raw array straight back.
            qkv = qkv.data
        qkv = qkv.reshape(*lead, tokens, 3, self.heads, self.head_dim)
        if kernels_enabled():
            rotary = None
            if rope_cos is not None:
                # Q and K rotated together, in place in the packed order the
                # projection produced — taped too: this module owns the
                # projection, and fused_linear's backward reads only its
                # input and weight.  The taped core rotates d(Q), d(K) back.
                rotary = (rope_cos[:, None, None, :],
                          rope_sin[:, None, None, :])
                fused_apply_rotary(
                    (qkv if tape_free else qkv.data)[..., :2, :, :], *rotary)
            out = fused_dot_product_attention(qkv, rotary)    # (..., T, H, hd)
        else:
            # current axes: lead..., T, 3, H, hd ; want: 3, lead..., H, T, hd
            n_lead = len(lead)
            qkv = qkv.transpose([n_lead + 1] + list(range(n_lead))
                                + [n_lead + 2, n_lead, n_lead + 3])
            q, k, v = qkv[0], qkv[1], qkv[2]
            if rope_cos is not None:
                q = apply_rotary(q, rope_cos, rope_sin)
                k = apply_rotary(k, rope_cos, rope_sin)
            out = dot_product_attention(q, k, v)              # (..., H, T, hd)
            out = out.swapaxes(-2, -3)
        # -> (..., T, H*hd)
        out = out.reshape(*lead, tokens, dim)
        return self.out(Tensor(out) if tape_free else out)
