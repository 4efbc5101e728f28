"""Per-variable z-score normalization (paper: "Data are z-score standardized
with per-variable training statistics")."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FieldNormalizer"]


@dataclass(frozen=True)
class FieldNormalizer:
    """Channel-wise affine standardization for ``(..., C)`` fields."""

    mean: np.ndarray   # (C,)
    std: np.ndarray    # (C,)

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be matching 1-D arrays")
        if np.any(self.std <= 0):
            raise ValueError("std must be strictly positive")

    @classmethod
    def from_data(cls, data: np.ndarray) -> "FieldNormalizer":
        """Fit over all axes except the trailing channel axis."""
        axes = tuple(range(data.ndim - 1))
        mean = data.mean(axis=axes, dtype=np.float64)
        std = data.std(axis=axes, dtype=np.float64)
        std = np.maximum(std, 1e-8)
        return cls(mean=mean.astype(np.float32), std=std.astype(np.float32))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return ((x - self.mean) / self.std).astype(np.float32)

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return (x * self.std + self.mean).astype(np.float32)
