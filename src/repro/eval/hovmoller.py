"""Hovmöller diagrams (Figure 7c): longitude–time sections of equatorial
U850 anomalies, the standard view of convectively coupled wave propagation."""

from __future__ import annotations

import numpy as np

from ..data import LatLonGrid, TOY_SET

__all__ = ["hovmoller", "propagation_speed"]

#: The paper's equatorial band, 10°S–10°N (degrees).
LAT_BAND = (-10.0, 10.0)


def hovmoller(fields: np.ndarray, grid: LatLonGrid,
              climatology: np.ndarray | None = None) -> np.ndarray:
    """``(T, H, W, C)`` -> ``(T, W)``: U850 anomaly averaged over
    :data:`LAT_BAND`.

    Band averaging is cosine-latitude weighted, matching the paper's
    "averaged between 10°N and 10°S".
    """
    c = TOY_SET.index("U850")
    data = fields[..., c]
    if climatology is not None:
        data = data - climatology[..., c]
    rows = np.nonzero(grid.band_mask(*LAT_BAND).any(axis=1))[0]
    w = grid.latitude_weights()[rows]
    return (data[:, rows, :] * w[None, :, None]).sum(axis=1) / w.sum()


def propagation_speed(diagram: np.ndarray, dt_hours: float,
                      dlon_deg: float) -> float:
    """Dominant zonal phase speed (deg/day) from the 2D spectrum of a
    Hovmöller diagram; sign > 0 means eastward propagation."""
    t, w = diagram.shape
    spec = np.abs(np.fft.fft2(diagram - diagram.mean())) ** 2
    freqs = np.fft.fftfreq(t, d=dt_hours / 24.0)   # cycles/day
    ks = np.fft.fftfreq(w, d=dlon_deg)             # cycles/deg
    # Ignore the mean row/column.
    spec[0, :] = 0.0
    spec[:, 0] = 0.0
    i, j = np.unravel_index(np.argmax(spec), spec.shape)
    if ks[j] == 0:
        return 0.0
    # A mode exp(i(k x − ω t)) in our FFT convention propagates at ω/k with
    # opposite signs of the raw indices.
    return float(-freqs[i] / ks[j])
