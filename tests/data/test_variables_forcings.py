"""Tests for variable inventories and forcing fields."""

import numpy as np
import pytest

from repro.data import (
    ERA5_FULL,
    PRESSURE_LEVELS,
    TOY_SET,
    ForcingProvider,
    LatLonGrid,
    StaticFields,
    toa_solar,
)
from repro.data import forcings
from repro.data.forcings import STEPS_PER_DAY, STEPS_PER_YEAR


class TestVariableSets:
    def test_full_set_is_70_channels(self):
        assert len(ERA5_FULL) == 5 + 5 * 13

    def test_wb2_levels(self):
        assert PRESSURE_LEVELS == (50, 100, 150, 200, 250, 300, 400, 500, 600,
                                   700, 850, 925, 1000)

    def test_toy_subset_names(self):
        assert TOY_SET.names == ("T2M", "U10", "V10", "MSLP", "SST", "Z500",
                                 "T850", "Q700", "U850")

    def test_index_lookup(self):
        assert ERA5_FULL.index("T2M") == 0
        assert ERA5_FULL.index("Z50") == 5
        with pytest.raises(KeyError):
            TOY_SET.index("nope")

    def test_kappa_surface_weights(self):
        assert TOY_SET["MSLP"].kappa == 1.5
        assert TOY_SET["T2M"].kappa == 1.0
        assert TOY_SET["U10"].kappa == 0.77

    def test_kappa_pressure_weighting(self):
        """Near-surface levels weighted more than stratospheric."""
        assert ERA5_FULL["T1000"].kappa > ERA5_FULL["T500"].kappa > ERA5_FULL["T50"].kappa
        np.testing.assert_allclose(ERA5_FULL["Z500"].kappa, 0.5)


class TestStaticFields:
    def test_land_fraction(self):
        grid = LatLonGrid(32, 64)
        static = StaticFields.generate(grid)
        frac = static.land_mask.mean()
        assert 0.2 < frac < 0.4

    def test_orography_only_over_land(self):
        grid = LatLonGrid(32, 64)
        static = StaticFields.generate(grid)
        assert np.all(static.orography[static.land_mask < 0.5] == 0.0)
        assert static.orography.max() > 100.0
        assert static.orography.max() < 5000.0

    def test_deterministic_given_seed(self, monkeypatch):
        grid = LatLonGrid(16, 32)
        a = StaticFields.generate(grid)
        b = StaticFields.generate(grid)
        np.testing.assert_array_equal(a.land_mask, b.land_mask)
        monkeypatch.setattr(forcings, "STATIC_SEED", 4)
        c = StaticFields.generate(grid)
        assert not np.array_equal(a.land_mask, c.land_mask)


class TestSolar:
    def test_nonnegative_and_bounded(self):
        grid = LatLonGrid(24, 48)
        for step in (0, 500, 1000):
            s = toa_solar(grid, step)
            assert np.all(s >= 0.0)
            assert s.max() <= 1361.0

    def test_night_side_dark(self):
        grid = LatLonGrid(24, 48)
        s = toa_solar(grid, 0)  # 00 UTC: lon 180 is near local noon
        noon_col = grid.lon_index(180.0)
        midnight_col = grid.lon_index(0.0)
        eq = grid.lat_index(0.0)
        assert s[eq, noon_col] > 1000.0
        assert s[eq, midnight_col] == 0.0

    def test_seasonal_cycle_polar(self):
        grid = LatLonGrid(24, 48)
        north = grid.lat_index(80.0)
        # NH summer (day ~172) vs winter (day ~355), daily mean.
        summer = np.mean([toa_solar(grid, 172 * STEPS_PER_DAY + k)[north].mean()
                          for k in range(STEPS_PER_DAY)])
        winter = np.mean([toa_solar(grid, 355 * STEPS_PER_DAY + k)[north].mean()
                          for k in range(STEPS_PER_DAY)])
        assert summer > 100.0
        assert winter < 10.0

    def test_annual_periodicity(self):
        grid = LatLonGrid(16, 32)
        a = toa_solar(grid, 100)
        b = toa_solar(grid, 100 + STEPS_PER_YEAR)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestForcingProvider:
    def test_channel_layout(self):
        grid = LatLonGrid(16, 32)
        static = StaticFields.generate(grid)
        provider = ForcingProvider(grid, static)
        f = provider(10)
        assert f.shape == (16, 32, 3)
        np.testing.assert_array_equal(f[..., 2], static.land_mask)
        np.testing.assert_allclose(f[..., 1], static.orography, rtol=1e-6)

    def test_solar_channel_varies_in_time(self):
        grid = LatLonGrid(16, 32)
        provider = ForcingProvider(grid, StaticFields.generate(grid))
        assert np.abs(provider(0)[..., 0] - provider(2)[..., 0]).max() > 10.0
