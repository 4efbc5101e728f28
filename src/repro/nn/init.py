"""Weight initializers.

AERIS follows modern large-transformer practice (Llama-3-style): truncated
normal for projections scaled by fan-in, zeros for the adaLN modulation
output (adaLN-Zero, after DiT) so every block starts as the identity.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trunc_normal", "zeros", "scaled_init_std"]


def trunc_normal(shape, std: float, rng: np.random.Generator,
                 bound: float = 2.0) -> np.ndarray:
    """Normal(0, std) truncated at ±``bound``·std via resampling."""
    out = rng.normal(0.0, std, size=shape)
    limit = bound * std
    bad = np.abs(out) > limit
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > limit
    return out.astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def scaled_init_std(fan_in: int) -> float:
    """Fan-in scaled initialization std used throughout the model."""
    return float(1.0 / np.sqrt(fan_in))
