"""Lat-lon grid utilities.

The paper's data live on the native 0.25° ERA5 grid (720x1440 with poles
removed); the reproduction uses the same equiangular pole-free layout at a
reduced resolution.  Latitude weights implement the alpha(s) factor of the
training objective and of all latitude-weighted verification metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["LatLonGrid"]


@dataclass(frozen=True)
class LatLonGrid:
    """Equiangular latitude-longitude grid, poles excluded.

    Rows run north to south (lat ``+max .. −max``), columns west to east
    (lon ``0 .. 360``), matching the row-major image layout of the model.
    """

    height: int
    width: int

    # Coordinates are computed once per grid and shared, hence read-only.
    @cached_property
    def lats(self) -> np.ndarray:
        """Cell-center latitudes (degrees), shape ``(height,)``."""
        step = 180.0 / self.height
        lats = 90.0 - step / 2 - step * np.arange(self.height)
        lats.setflags(write=False)
        return lats

    @cached_property
    def lons(self) -> np.ndarray:
        """Cell-center longitudes (degrees in [0, 360)), shape ``(width,)``."""
        lons = 360.0 / self.width * np.arange(self.width)
        lons.setflags(write=False)
        return lons

    @cached_property
    def solar_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``sin(lat)`` and ``cos(lat)`` as ``(height, 1)`` columns and each
        longitude's offset from UTC in hours (what ``toa_solar`` reads)."""
        lat = np.deg2rad(self.lats)[:, None]
        tables = (np.sin(lat), np.cos(lat), self.lons / 15.0)
        for table in tables:
            table.setflags(write=False)
        return tables

    @property
    def dlat(self) -> float:
        return 180.0 / self.height

    @property
    def dlon(self) -> float:
        return 360.0 / self.width

    def latitude_weights(self) -> np.ndarray:
        """Area (cosine-latitude) weights normalized to mean 1, shape (H,)."""
        w = np.cos(np.deg2rad(self.lats))
        return (w / w.mean()).astype(np.float64)

    def cell_area_weights(self) -> np.ndarray:
        """2D weights ``(H, W)`` normalized to mean 1 (zonally uniform)."""
        return np.repeat(self.latitude_weights()[:, None], self.width, axis=1)

    # -- index helpers -------------------------------------------------------
    def lat_index(self, lat: float) -> int:
        """Row index of the cell containing ``lat``."""
        return int(np.argmin(np.abs(self.lats - lat)))

    def lon_index(self, lon: float) -> int:
        return int(np.round((lon % 360.0) / self.dlon)) % self.width

    def box_mask(self, lat_min: float, lat_max: float, lon_min: float,
                 lon_max: float) -> np.ndarray:
        """Boolean mask for a lat/lon box (lon range may wrap 360).

        A cell belongs to the box if its *area* overlaps it (half-cell
        margin), so narrow boxes remain non-empty on coarse grids.
        """
        mlat, mlon = self.dlat / 2, self.dlon / 2
        lat_ok = (self.lats >= lat_min - mlat) & (self.lats <= lat_max + mlat)
        lons = self.lons
        lon_min, lon_max = lon_min % 360.0, lon_max % 360.0
        if lon_min <= lon_max:
            lon_ok = (lons >= lon_min - mlon) & (lons <= lon_max + mlon)
        else:
            lon_ok = (lons >= lon_min - mlon) | (lons <= lon_max + mlon)
        return lat_ok[:, None] & lon_ok[None, :]

    def band_mask(self, lat_min: float, lat_max: float) -> np.ndarray:
        """Boolean mask for a latitude band, shape ``(H, W)``."""
        return self.box_mask(lat_min, lat_max, 0.0, 359.999)

    def area_mean(self, field: np.ndarray, mask: np.ndarray | None = None
                  ) -> np.ndarray:
        """Latitude-weighted mean over (H, W), optionally under a mask.

        ``field`` may have leading axes; the spatial axes must be the last
        two (or last three with a trailing channel axis is NOT supported
        here — reduce channels first).
        """
        w = self.cell_area_weights()
        if mask is not None:
            w = w * mask
        total = w.sum()
        return (field * w).sum(axis=(-2, -1)) / total
