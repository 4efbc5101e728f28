"""Physically weighted diffusion objective (paper Eq. 1–2).

The per-pixel velocity regression error is weighted by a latitude factor
``alpha(s)`` (the sphere's re-gridded cell areas) and a per-variable factor
``kappa(v)`` (pressure weighting emphasizing near-surface levels).  Both
weight vectors are produced by :mod:`repro.data` and normalized to mean 1 so
the weighted loss is directly comparable to an unweighted MSE.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor

__all__ = ["weighted_velocity_loss"]


def weighted_velocity_loss(pred: Tensor, target: np.ndarray,
                           lat_weights: np.ndarray,
                           var_weights: np.ndarray) -> Tensor:
    """Latitude- and variable-weighted L2 loss.

    Parameters
    ----------
    pred:
        ``(B, H, W, C)`` network output (sigma_d * F_theta).
    target:
        ``(B, H, W, C)`` velocity target.
    lat_weights:
        ``(H,)`` latitude weights alpha(s); normalized internally to mean 1.
    var_weights:
        ``(C,)`` variable weights kappa(v); normalized internally to mean 1.
    """
    lat = np.asarray(lat_weights, dtype=np.float32)
    var = np.asarray(var_weights, dtype=np.float32)
    if pred.shape[1] != lat.shape[0]:
        raise ValueError(f"lat_weights length {lat.shape[0]} != H {pred.shape[1]}")
    if pred.shape[-1] != var.shape[0]:
        raise ValueError(f"var_weights length {var.shape[0]} != C {pred.shape[-1]}")
    lat = lat / lat.mean()
    var = var / var.mean()
    weight = lat[None, :, None, None] * var[None, None, None, :]
    diff = pred - Tensor(target)
    return (diff * diff * Tensor(weight)).mean()
