"""Emulated BF16 arithmetic.

Aurora's compute-intensive kernels run in BF16 while embeddings, master
weights, primary gradients, and gradient reductions stay in FP32
(paper Section V-A, "Mixed precision").  NumPy has no native bfloat16, so we
emulate it: a BF16 value is an FP32 value whose low 16 mantissa bits are zero.
Rounding uses round-to-nearest-even, matching hardware behaviour.

A mode switch lets the autograd engine quantize matmul inputs, reproducing
the paper's precision split (matmul/attention in BF16, everything else FP32).
It is a per-thread context variable (:mod:`repro.scoped`); the workspace
arena and the FLOP counters are per thread too.
"""

from __future__ import annotations

from contextvars import ContextVar

import numpy as np

from ..scoped import scoped

__all__ = ["round_bf16", "bf16_matmul_enabled", "autocast_bf16"]

_BF16_MATMUL = ContextVar("bf16_matmul", default=False)


def round_bf16(x: np.ndarray) -> np.ndarray:
    """Round an FP32 array to the nearest representable BF16 value.

    Implements round-to-nearest-even on the upper 16 bits of the IEEE-754
    single-precision representation. NaN payloads are preserved as quiet NaNs
    and infinities pass through unchanged.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    bits = x.view(np.uint32)
    # Round-to-nearest-even: add 0x7FFF plus the LSB of the surviving part.
    lsb = (bits >> 16) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb
    rounded &= np.uint32(0xFFFF0000)
    out = rounded.view(np.float32).copy()
    # NaNs must stay NaNs (rounding can carry into the exponent of a NaN).
    nan_mask = np.isnan(x)
    if nan_mask.any():
        out[nan_mask] = np.float32(np.nan)
    return out


def bf16_matmul_enabled() -> bool:
    """True when matmuls should quantize their inputs to BF16."""
    return _BF16_MATMUL.get()


def autocast_bf16():
    """Enable emulated-BF16 matmul inputs within the block.

    Mirrors the paper's mixed-precision setup: inside the context every
    matmul rounds both operands to BF16 before multiplying (accumulation
    remains FP32, as on real hardware), while parameters, gradients and
    reductions stay FP32.
    """
    return scoped(_BF16_MATMUL, True)
