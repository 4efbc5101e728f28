"""Zonal power spectra and spectral sharpness.

The paper reports "correct power-spectra even at the smallest scales" for
90-day rollouts — the signature that the diffusion model does not blur,
unlike deterministic models whose spectra collapse at high wavenumber.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zonal_power_spectrum", "sharpness_ratio"]

#: :func:`sharpness_ratio`'s band: the top half of the zonal wavenumbers.
K_MIN_FRAC = 0.5


def zonal_power_spectrum(field: np.ndarray) -> np.ndarray:
    """Mean power per zonal wavenumber.

    ``field``: ``(..., H, W)``; returns ``(..., W//2 + 1)`` power averaged
    over latitude rows (and any leading axes are preserved).
    """
    spec = np.abs(np.fft.rfft(field, axis=-1)) ** 2
    return spec.mean(axis=-2)


def sharpness_ratio(forecast: np.ndarray, reference: np.ndarray) -> float:
    """Power ratio forecast/reference in the top (smallest-scale) band.

    1.0 = spectrally faithful; << 1 = blurred (the deterministic-model
    failure mode); >> 1 = noisy.
    """
    ps_f = zonal_power_spectrum(forecast)
    ps_r = zonal_power_spectrum(reference)
    # Flatten leading axes and average spectra before the band ratio.
    ps_f = ps_f.reshape(-1, ps_f.shape[-1]).mean(axis=0)
    ps_r = ps_r.reshape(-1, ps_r.shape[-1]).mean(axis=0)
    k0 = int(len(ps_f) * K_MIN_FRAC)
    band_f = ps_f[k0:].sum()
    band_r = ps_r[k0:].sum()
    return float(band_f / max(band_r, 1e-30))
