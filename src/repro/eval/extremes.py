"""Heatwave diagnostics (Figure 5b): point time series of T2M against
climatology and exceedance detection."""

from __future__ import annotations

import numpy as np

from ..data import LatLonGrid, TOY_SET

__all__ = ["point_series", "heatwave_detected", "heatwave_hit_rate"]


def point_series(fields: np.ndarray, grid: LatLonGrid, lat: float,
                 lon: float) -> np.ndarray:
    """T2M time series at the grid cell nearest (lat, lon): ``(T,)``."""
    return fields[:, grid.lat_index(lat), grid.lon_index(lon),
                  TOY_SET.index("T2M")]


def heatwave_detected(series: np.ndarray, climatology: np.ndarray,
                      threshold: float = 3.0, min_steps: int = 4) -> bool:
    """True if the anomaly exceeds ``threshold`` K for at least
    ``min_steps`` consecutive 6h steps (>= 1 day by default)."""
    hot = (series - climatology) > threshold
    run = 0
    for flag in hot:
        run = run + 1 if flag else 0
        if run >= min_steps:
            return True
    return False


def heatwave_hit_rate(ensemble_series: np.ndarray, climatology: np.ndarray,
                      threshold: float = 3.0, min_steps: int = 4) -> float:
    """Fraction of ensemble members that forecast the heatwave."""
    hits = [heatwave_detected(member, climatology, threshold, min_steps)
            for member in ensemble_series]
    return float(np.mean(hits))
