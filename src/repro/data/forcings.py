"""Forcing inputs: top-of-atmosphere solar radiation, surface geopotential
(orography), and land-sea mask (paper Section VI-B: "we also force the model
with top-of-atmosphere solar radiation, surface geopotential, and land-sea
mask as input").

The static fields are procedural (seeded smooth noise shaped into
continents) since the substitution substrate has no real geography; the TOA
solar flux is the standard analytic insolation formula and carries the
diurnal + seasonal phase information the paper uses it for ("to stabilize
phase shift").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import LatLonGrid

__all__ = ["StaticFields", "toa_solar", "ForcingProvider",
           "STEPS_PER_DAY", "DAYS_PER_YEAR", "STEPS_PER_YEAR"]

#: 6-hourly cadence, 365-day calendar (no leap days, like many GCMs).
STEPS_PER_DAY = 4
DAYS_PER_YEAR = 365
STEPS_PER_YEAR = STEPS_PER_DAY * DAYS_PER_YEAR

_SOLAR_CONSTANT = 1361.0  # W/m^2
#: The procedural geography's seed and its share of land cells.
STATIC_SEED = 7
LAND_FRACTION = 0.3


def _smooth_noise(rng: np.random.Generator, height: int, width: int,
                  cutoff: float = 4.0) -> np.ndarray:
    """Smooth random field via low-pass filtering white noise in Fourier
    space (zonally periodic; meridionally reflected)."""
    noise = rng.normal(size=(height, width))
    fy = np.fft.fftfreq(height)[:, None] * height
    fx = np.fft.fftfreq(width)[None, :] * width
    k = np.sqrt(fy ** 2 + fx ** 2)
    filt = np.exp(-(k / cutoff) ** 2)
    out = np.fft.ifft2(np.fft.fft2(noise) * filt).real
    out /= max(out.std(), 1e-12)
    return out


@dataclass(frozen=True)
class StaticFields:
    """Procedural geography: land mask and orography."""

    land_mask: np.ndarray   # (H, W) float in {0, 1}
    orography: np.ndarray   # (H, W) meters, zero over ocean

    @classmethod
    def generate(cls, grid: LatLonGrid) -> "StaticFields":
        rng = np.random.default_rng(STATIC_SEED)
        base = _smooth_noise(rng, grid.height, grid.width, cutoff=3.0)
        # Continents avoid deep polar rows slightly and are favored mid-lat.
        lat_bias = 0.3 * np.cos(np.deg2rad(grid.lats / 1.5))[:, None]
        score = base + lat_bias
        threshold = np.quantile(score, 1.0 - LAND_FRACTION)
        land = (score > threshold).astype(np.float64)
        rough = _smooth_noise(rng, grid.height, grid.width, cutoff=6.0)
        orography = np.clip(rough, 0.0, 1.3) ** 2 * 2000.0 * land
        return cls(land_mask=land, orography=orography)


def toa_solar(grid: LatLonGrid, step: int) -> np.ndarray:
    """Instantaneous TOA insolation (W/m^2) at a 6-hourly step index.

    Standard solar geometry: declination follows the day of year, the hour
    angle follows UTC time and longitude.
    """
    day_of_year = (step // STEPS_PER_DAY) % DAYS_PER_YEAR
    hour_utc = (step % STEPS_PER_DAY) * 24.0 / STEPS_PER_DAY
    decl = np.deg2rad(-23.44) * np.cos(2 * np.pi * (day_of_year + 10) / DAYS_PER_YEAR)
    sin_lat, cos_lat, lon_hours = grid.solar_geometry
    # Local solar hour angle (radians): 0 at local noon.
    hour_local = (hour_utc + lon_hours) % 24.0
    hour_angle = np.deg2rad(15.0 * (hour_local - 12.0))[None, :]
    cos_zenith = (sin_lat * np.sin(decl)
                  + cos_lat * np.cos(decl) * np.cos(hour_angle))
    return _SOLAR_CONSTANT * np.maximum(cos_zenith, 0.0)


class ForcingProvider:
    """Assembles the ``(H, W, 3)`` forcing tensor for a time step.

    Channel order: [TOA solar, orography, land-sea mask]. A provider is the
    `forcing_fn` consumed by :class:`repro.diffusion.ResidualForecaster`.
    """

    def __init__(self, grid: LatLonGrid, static: StaticFields):
        self.grid = grid
        self.static = static
        self._template = np.empty((grid.height, grid.width, 3), dtype=np.float32)
        self._template[..., 1] = static.orography
        self._template[..., 2] = static.land_mask

    def __call__(self, step: int) -> np.ndarray:
        out = self._template.copy()  # fresh memory: the caller may keep it
        out[..., 0] = toa_solar(self.grid, step)
        return out
