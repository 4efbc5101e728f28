"""The shipped data layer against the pre-hoist one (``reference_gcm.py``),
stepped side by side on this machine: every prognostic field, the event
lists, the RNG stream and the diagnosed fields are ``array_equal`` at every
step.  The archive's bytes decide every downstream digest, so nothing here
is a tolerance."""

import numpy as np
import pytest

from repro.data.era5 import ReanalysisConfig, SyntheticReanalysis
from repro.data.forcings import (STEPS_PER_YEAR, ForcingProvider,
                                 StaticFields, toa_solar)
from repro.data.gcm import N_LATENTS, ToyGCM, _l96_tendency
from repro.data.grid import LatLonGrid

from . import reference_gcm as ref

GRIDS = ((8, 16), (16, 32), (24, 48))


def models(height, width):
    grid = LatLonGrid(height, width)
    static = StaticFields.generate(grid)
    return (ToyGCM(grid, static),
            ref.ReferenceGCM(ref.ReferenceGrid(height, width), static))


def assert_states_equal(a, b):
    assert a.step == b.step
    for name in ("latents", "enso", "q", "theta", "moisture"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), \
            f"{name} at step {a.step}"
    assert a.cyclones == b.cyclones and a.heatwaves == b.heatwaves
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def lockstep(new, old, seed, n_steps):
    """Step both models from their own ``initial_state`` (no spin-up, so
    the spin-up steps are compared too); returns how many compared steps
    had a live cyclone, a live heatwave, and both at once."""
    a = new.initial_state(seed=seed, spinup_steps=0)
    b = old.initial_state(seed=seed, spinup_steps=0)
    with_tc = with_hw = with_both = 0
    for _ in range(n_steps):
        new.step(a)
        old.step(b)
        assert_states_equal(a, b)
        assert np.array_equal(new.diagnostics(a), old.diagnostics(b)), \
            f"diagnostics at step {a.step}"
        with_tc += bool(a.cyclones)
        with_hw += bool(a.heatwaves)
        with_both += bool(a.cyclones and a.heatwaves)
    return with_tc, with_hw, with_both


class TestTrajectories:
    def test_two_years_enter_the_event_imprints(self):
        """The quickstart archive ends with no live event, so its digest
        never enters the imprint branch of ``diagnostics``; two simulated
        years do, for both kinds and for both at once."""
        new, old = models(8, 16)
        with_tc, with_hw, with_both = lockstep(new, old, seed=2,
                                               n_steps=2 * STEPS_PER_YEAR)
        assert with_tc > 100 and with_hw > 50 and with_both > 10

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("height,width", GRIDS)
    def test_every_grid_and_seed(self, height, width, seed):
        lockstep(*models(height, width), seed=seed, n_steps=150)

    def test_perturbed_twin(self):
        new, old = models(16, 32)
        twin, old_twin = new.perturbed_twin(0.1, 5), old.perturbed_twin(0.1, 5)
        assert twin.config == old_twin.config != new.config
        lockstep(twin, old_twin, seed=1, n_steps=150)

    def test_twin_and_parent_interleaved(self):
        """A twin shares its parent's tables: stepping the two alternately
        reproduces each one's solo trajectory."""
        new, _ = models(8, 16)
        twin = new.perturbed_twin(0.1, 3)
        solo = [m.initial_state(seed=2, spinup_steps=0) for m in (new, twin)]
        for m, state in zip((new, twin), solo):
            for _ in range(60):
                m.step(state)
        mixed = [m.initial_state(seed=2, spinup_steps=0) for m in (new, twin)]
        for _ in range(60):
            new.step(mixed[0])
            twin.step(mixed[1])
        for m, a, b in zip((new, twin), solo, mixed):
            assert_states_equal(a, b)
            np.testing.assert_array_equal(m.diagnostics(a), m.diagnostics(b))
        assert not np.array_equal(solo[0].q, solo[1].q)


class TestPieces:
    @pytest.mark.parametrize("height,width", GRIDS)
    def test_background_and_forcing_tables(self, height, width):
        new, old = models(height, width)
        for step in range(0, 2 * STEPS_PER_YEAR, 211):
            np.testing.assert_array_equal(new.jet(step), old.jet(step))
            np.testing.assert_array_equal(toa_solar(new.grid, step),
                                          ref.toa_solar(old.grid, step))
            clim, old_clim = new.climatology(step), old.climatology(step)
            assert clim.keys() == old_clim.keys()
            for name, column in clim.items():
                np.testing.assert_array_equal(
                    np.broadcast_to(column, (height, width)), old_clim[name])

    def test_l96_smooth_advect(self):
        rng = np.random.default_rng(0)
        x = 8.0 + rng.normal(size=N_LATENTS)
        np.testing.assert_array_equal(_l96_tendency(x, 8.0),
                                      ref._l96_tendency(x, 8.0))
        new, old = models(16, 32)
        f = rng.normal(size=(16, 32))
        for passes in (1, 2, 3):
            np.testing.assert_array_equal(new._smooth(f, passes),
                                          ref._smooth(f, passes))
        # Winds strong enough to wrap in longitude and clamp at both poles.
        u_deg, v_deg = 40.0 * rng.normal(size=(2, 16, 32))
        np.testing.assert_array_equal(
            new._advect(f, new._advect_plan(u_deg, v_deg)),
            old._advect(f, u_deg, v_deg))

    def test_forcing_provider_across_the_calendar(self):
        new, old = models(16, 32)
        provider = ForcingProvider(new.grid, new.static)
        for k in range(16):
            step = 240 + k * (STEPS_PER_YEAR // 16) + k % 4
            expected = np.empty((16, 32, 3), dtype=np.float32)
            expected[..., 0] = ref.toa_solar(old.grid, step)
            expected[..., 1] = new.static.orography
            expected[..., 2] = new.static.land_mask
            got = provider(step)
            assert got.dtype == np.float32 and got.flags.writeable
            np.testing.assert_array_equal(got, expected)

    def test_internal_state_between_checkpoints(self):
        cfg = ReanalysisConfig(height=8, width=16, train_years=0.02,
                               val_years=0.01, test_years=0.01, seed=1,
                               spinup_steps=24)
        archive = SyntheticReanalysis(cfg)
        _, old = models(8, 16)
        expected = old.initial_state(seed=1, spinup_steps=24)
        for _ in range(13):        # 13 = checkpoint 8 + 5 replayed steps
            old.step(expected)
        state = archive.internal_state_at(13)
        assert_states_equal(state, expected)
        np.testing.assert_array_equal(archive.fields[13],
                                      old.diagnostics(expected))
        # A clone is independent of the checkpoint it was taken from.
        state.q[:] = 0.0
        state.rng.uniform()
        assert_states_equal(archive.internal_state_at(13), expected)


class TestAliasing:
    def test_forcing_result_is_the_callers_to_mutate(self):
        grid = LatLonGrid(8, 16)
        provider = ForcingProvider(grid, StaticFields.generate(grid))
        first = provider(300)
        kept = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(provider(300), kept)

    def test_grid_coordinates_are_read_only_and_unshared(self):
        grid, other = LatLonGrid(8, 16), LatLonGrid(8, 16)
        for name in ("lats", "lons"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 0.0
            assert getattr(grid, name) is getattr(grid, name)
            assert not np.shares_memory(getattr(grid, name),
                                        getattr(other, name))
        for table in grid.solar_geometry:
            assert not table.flags.writeable
