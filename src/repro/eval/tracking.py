"""Tropical-cyclone tracking (Figure 6): follow the MSLP minimum of a storm
through a forecast and report track + intensity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import LatLonGrid, TOY_SET

__all__ = ["TrackPoint", "track_cyclone", "track_error_km"]

_EARTH_RADIUS_KM = 6371.0
#: Radius of the disc searched around the previous track point (degrees).
SEARCH_RADIUS_DEG = 15.0


@dataclass(frozen=True)
class TrackPoint:
    step: int
    lat: float
    lon: float
    min_mslp: float
    max_wind: float


def _local_wind_speed(fields: np.ndarray) -> np.ndarray:
    u = fields[..., TOY_SET.index("U10")]
    v = fields[..., TOY_SET.index("V10")]
    return np.sqrt(u ** 2 + v ** 2)


def track_cyclone(fields: np.ndarray, grid: LatLonGrid,
                  start_lat: float, start_lon: float) -> list[TrackPoint]:
    """Track the storm nearest (start_lat, start_lon) through ``(T, H, W, C)``.

    At each step the tracker searches a disc around the previous position
    for the minimum MSLP; tracking stops when the disc leaves the tropics/
    midlatitudes or the low fills above the background.
    """
    mslp_c = TOY_SET.index("MSLP")
    lat, lon = start_lat, start_lon
    track: list[TrackPoint] = []
    wind = _local_wind_speed(fields)
    for step in range(fields.shape[0]):
        mslp = fields[step, ..., mslp_c]
        dlat = grid.lats[:, None] - lat
        dlon = np.abs(grid.lons[None, :] - lon)
        dlon = np.minimum(dlon, 360.0 - dlon) * np.cos(np.deg2rad(lat))
        dist = np.sqrt(dlat ** 2 + dlon ** 2)
        disc = dist <= SEARCH_RADIUS_DEG
        if not disc.any():
            break
        masked = np.where(disc, mslp, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        lat, lon = float(grid.lats[i]), float(grid.lons[j])
        near = dist <= SEARCH_RADIUS_DEG
        track.append(TrackPoint(step=step, lat=lat, lon=lon,
                                min_mslp=float(mslp[i, j]),
                                max_wind=float(wind[step][near].max())))
        if abs(lat) > 60.0:
            break
    return track


def track_error_km(track_a: list[TrackPoint], track_b: list[TrackPoint]
                   ) -> np.ndarray:
    """Great-circle distance between two tracks at matching steps."""
    n = min(len(track_a), len(track_b))
    out = np.empty(n)
    for k in range(n):
        a, b = track_a[k], track_b[k]
        la, lb = np.deg2rad(a.lat), np.deg2rad(b.lat)
        dlon = np.deg2rad(a.lon - b.lon)
        cos_d = np.clip(np.sin(la) * np.sin(lb)
                        + np.cos(la) * np.cos(lb) * np.cos(dlon), -1.0, 1.0)
        out[k] = _EARTH_RADIUS_KM * np.arccos(cos_d)
    return out
