"""Weight initializers.

AERIS follows modern large-transformer practice (Llama-3-style): truncated
normal for projections scaled by fan-in, zeros for the adaLN modulation
output (adaLN-Zero, after DiT) so every block starts as the identity.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trunc_normal", "zeros", "scaled_init_std"]

#: :func:`trunc_normal` resamples draws beyond this many standard deviations.
TRUNC_BOUND = 2.0


def trunc_normal(shape, std: float, rng: np.random.Generator) -> np.ndarray:
    """Normal(0, std) truncated at ±``TRUNC_BOUND``·std via resampling."""
    out = rng.normal(0.0, std, size=shape)
    limit = TRUNC_BOUND * std
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
