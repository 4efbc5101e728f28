"""Data-quality tests: the synthetic reanalysis must have the statistical
structure the learning problem depends on (red spectra, diurnal/seasonal
cycles, multi-timescale persistence, memmap compatibility)."""

import numpy as np
import pytest

from repro.data import ShardedWindowLoader, TOY_SET
from repro.eval import zonal_power_spectrum
from tests.data.test_era5_loader import reassemble


class TestSpectralStructure:
    def test_red_zonal_spectrum(self, tiny_archive):
        """Geophysical fields concentrate power at planetary scales."""
        z = tiny_archive.fields[:200, ..., TOY_SET.index("Z500")]
        spec = zonal_power_spectrum(z.astype(np.float64)).mean(axis=0)
        low = spec[1:4].mean()
        high = spec[-4:].mean()
        assert low > 10 * high

    def test_anomaly_fields_not_constant(self, tiny_archive):
        for name in TOY_SET.names:
            c = TOY_SET.index(name)
            std = tiny_archive.fields[..., c].std()
            assert std > 1e-3, f"{name} is degenerate"


class TestTimescales:
    def test_sst_much_more_persistent_than_winds(self, tiny_archive):
        """The slow ocean vs the fast atmosphere (the S2S premise)."""
        def lag_corr(c, lag):
            x = tiny_archive.fields[:-lag, ..., c].ravel().astype(np.float64)
            y = tiny_archive.fields[lag:, ..., c].ravel().astype(np.float64)
            x = x - x.mean()
            y = y - y.mean()
            return float((x * y).mean() / (x.std() * y.std()))

        lag = 28  # one week
        assert lag_corr(TOY_SET.index("SST"), lag) \
            > lag_corr(TOY_SET.index("V10"), lag) + 0.1

    def test_diurnal_cycle_in_t2m(self, tiny_archive):
        """Land T2M must vary with time of day (solar forcing)."""
        t2m = tiny_archive.fields[:400, ..., TOY_SET.index("T2M")]
        land = tiny_archive.static.land_mask > 0.5
        series = t2m[:, land].mean(axis=1)
        by_hour = [series[k::4].mean() for k in range(4)]
        assert max(by_hour) - min(by_hour) > 0.1

    def test_residuals_partially_predictable(self, tiny_archive):
        """One-step residuals must not be white noise: successive residuals
        correlate (advection persistence), which is what the network
        learns."""
        z = tiny_archive.fields[:400, ..., TOY_SET.index("Z500")]
        res = np.diff(z, axis=0).reshape(399, -1)
        r1 = res[:-1].ravel().astype(np.float64)
        r2 = res[1:].ravel().astype(np.float64)
        corr = np.corrcoef(r1, r2)[0, 1]
        assert corr > 0.3


class TestStorageCompat:
    def test_loader_works_on_memmap(self, tiny_archive, tmp_path):
        """The sharded loader must accept memory-mapped archives (the
        HDF5-slicing stand-in for out-of-core 16 TiB data)."""
        path = str(tmp_path / "fields.npy")
        np.save(path, tiny_archive.fields[:4])
        mm = np.load(path, mmap_mode="r")
        loader = ShardedWindowLoader(mm, window=(4, 4), wp_grid=(2, 2))
        shards = [loader.load(2, r) for r in range(4)]
        np.testing.assert_array_equal(reassemble(loader, shards),
                                      tiny_archive.fields[2])
