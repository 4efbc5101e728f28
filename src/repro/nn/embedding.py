"""Positional and diffusion-time embeddings.

The paper adds a 2D sinusoidal positional encoding to each channel of the
pixel-space input ("to serve as a proxy of locality"), and projects the
diffusion timestep through a shared linear layer that is broadcast to every
Swin layer's adaLN modulation.
"""

from __future__ import annotations

import numpy as np

from ..kernels import _tape_free, fused_silu, fused_time_features
from ..tensor import Tensor
from .linear import Linear
from .module import Module

__all__ = [
    "pixel_positional_field",
    "TimestepEmbedding",
]


#: Latitude/longitude harmonics of :func:`pixel_positional_field`.
PIXEL_FIELD_FREQS = 4


def pixel_positional_field(height: int, width: int) -> np.ndarray:
    """A fixed ``(height, width)`` sinusoidal field added to every channel.

    Combines a few latitude/longitude harmonics so each pixel receives a
    near-unique smooth signature; amplitude is kept at ~0.1 so it perturbs
    z-scored inputs only mildly.
    """
    y = np.linspace(0.0, 1.0, height, endpoint=False)[:, None]
    x = np.linspace(0.0, 1.0, width, endpoint=False)[None, :]
    field = np.zeros((height, width), dtype=np.float32)
    for k in range(1, PIXEL_FIELD_FREQS + 1):
        field += np.sin(2 * np.pi * k * y) / k + np.cos(2 * np.pi * k * x) / k
    field *= 0.1 / PIXEL_FIELD_FREQS
    return field.astype(np.float32)


class TimestepEmbedding(Module):
    """Fourier-feature + shared-linear embedding of the diffusion time ``t``.

    ``t`` lives in ``[0, pi/2]`` under TrigFlow. The output feeds every Swin
    layer's :class:`~repro.nn.norm.AdaLNModulation` ("projected through a
    shared linear layer, and then further broadcasted to all the layers").
    """

    def __init__(self, dim: int, n_freqs: int = 32,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if n_freqs % 2:
            raise ValueError("n_freqs must be even")
        self.n_freqs = n_freqs
        # Frequencies span unit-scale to fine-scale variation over [0, pi/2].
        self.freqs = np.logspace(0.0, 3.0, n_freqs // 2).astype(np.float32)
        self.proj = Linear(n_freqs, dim, rng=rng)

    def forward(self, t: Tensor) -> Tensor:
        """``t`` of shape ``(batch,)`` -> embedding of shape ``(batch, dim)``."""
        if _tape_free():    # raw-only kernels: SiLU in place on its input
            feats = Tensor(fused_time_features(t.data, self.freqs))
            return Tensor(fused_silu(self.proj(feats).data))
        angles = t.reshape(-1, 1) * Tensor(self.freqs)
        feats_sin = angles.sin()
        feats_cos = angles.cos()
        from ..tensor import concat
        feats = concat([feats_sin, feats_cos], axis=-1)
        return self.proj(feats).silu()
