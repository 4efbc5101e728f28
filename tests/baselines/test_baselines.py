"""Tests for the baseline forecasting systems."""

import numpy as np
import pytest

from repro.baselines import (
    ClimatologyForecaster,
    DeterministicTrainer,
    EdmConfig,
    EdmTrainer,
    NumericalEnsemble,
    NumericalEnsembleConfig,
    persistence_forecast,
)
from repro.baselines.gencast_like import SIGMA_DATA, SIGMA_MAX
from repro.data import TOY_SET
from repro.model import Aeris
from repro.train import TrainerConfig
from tests.train.test_trainer import TINY16


class TestPersistence:
    def test_constant(self, tiny_archive):
        state = tiny_archive.fields[0]
        out = persistence_forecast(state, 5)
        assert out.shape == (6,) + state.shape
        for k in range(6):
            np.testing.assert_array_equal(out[k], state)

    def test_does_not_alias_input(self, tiny_archive):
        state = tiny_archive.fields[0].copy()
        out = persistence_forecast(state, 2)
        out[1] += 1.0
        np.testing.assert_array_equal(out[0], state)


class TestClimatology:
    def test_shape_and_values(self, tiny_archive):
        fc = ClimatologyForecaster(tiny_archive)
        start = int(tiny_archive.split_indices("test")[0])
        out = fc.rollout(start, 4)
        assert out.shape == (5,) + tiny_archive.fields.shape[1:]
        expected = tiny_archive.climatology_at(fc.clim, start + 2)
        np.testing.assert_array_equal(out[2], expected)

    def test_beats_nothing_at_long_lead(self, tiny_archive):
        """At long leads, climatology error ~ climatological variability —
        i.e. bounded; persistence error keeps growing with season."""
        fc = ClimatologyForecaster(tiny_archive)
        start = int(tiny_archive.split_indices("test")[0])
        n = 40
        clim = fc.rollout(start, n)
        pers = persistence_forecast(tiny_archive.fields[start], n)
        truth = tiny_archive.fields[start:start + n + 1]
        t2 = TOY_SET.index("T2M")
        clim_err = np.abs(clim[..., t2] - truth[..., t2]).mean()
        pers_err = np.abs(pers[..., t2] - truth[..., t2]).mean()
        # Climatology error is bounded by climatological variability even
        # when the training split does not cover the test season.
        assert clim_err < 2 * pers_err + 5.0


class TestNumericalEnsemble:
    @pytest.fixture(scope="class")
    def ens(self, tiny_archive):
        nwp = NumericalEnsemble(tiny_archive,
                                NumericalEnsembleConfig(seed=1))
        start = int(tiny_archive.split_indices("test")[0])
        return start, nwp.ensemble_rollout(start, n_steps=8, n_members=3)

    def test_shape(self, ens, tiny_archive):
        _, rollout = ens
        assert rollout.shape == (3, 9) + tiny_archive.fields.shape[1:]
        assert np.isfinite(rollout).all()

    def test_members_differ(self, ens):
        _, rollout = ens
        assert np.abs(rollout[0, -1] - rollout[1, -1]).max() > 1e-3

    def test_starts_near_analysis(self, ens, tiny_archive):
        start, rollout = ens
        truth0 = tiny_archive.fields[start]
        z = TOY_SET.index("Z500")
        err0 = np.abs(rollout[:, 0, ..., z] - truth0[..., z]).mean()
        spread_late = rollout[:, -1, ..., z].std(axis=0).mean()
        assert err0 < 40.0          # ICs close to the truth
        assert spread_late > 0.5    # ensemble develops spread

    def test_error_grows_with_lead(self, ens, tiny_archive):
        start, rollout = ens
        truth = tiny_archive.fields[start:start + 9]
        z = TOY_SET.index("Z500")
        mean_fc = rollout.mean(axis=0)
        early = np.abs(mean_fc[1, ..., z] - truth[1, ..., z]).mean()
        late = np.abs(mean_fc[8, ..., z] - truth[8, ..., z]).mean()
        assert late > early


@pytest.mark.slow
class TestDeterministicBaseline:
    @pytest.fixture(scope="class")
    def det(self, tiny_archive):
        model = Aeris(TINY16, seed=1)
        trainer = DeterministicTrainer(
            model, tiny_archive,
            TrainerConfig(batch_size=8, peak_lr=8e-3, warmup_images=80,
                          total_images=100_000, decay_images=400, seed=1))
        trainer.fit(150)
        return trainer

    def test_loss_decreases(self, det):
        h = np.asarray(det.history)
        assert h[-20:].mean() < 0.93 * h[:20].mean()

    def test_rollout_is_deterministic(self, det, tiny_archive):
        fc = det.forecaster()
        start = int(tiny_archive.split_indices("test")[0])
        a = fc.rollout(tiny_archive.fields[start], 3, start_index=start)
        b = fc.rollout(tiny_archive.fields[start], 3, start_index=start)
        np.testing.assert_array_equal(a, b)

    def test_beats_persistence_one_step_t2m(self, det, tiny_archive):
        """T2M has a strongly predictable diurnal component the model picks
        up quickly; a trained model must beat persistence there."""
        fc = det.forecaster()
        idxs = tiny_archive.split_indices("test")[:12]
        c = TOY_SET.index("T2M")
        err_model, err_pers = [], []
        for i in idxs:
            pred = fc.step(tiny_archive.fields[i], int(i))
            err_model.append(np.abs(pred[..., c]
                                    - tiny_archive.fields[i + 1][..., c]).mean())
            err_pers.append(np.abs(tiny_archive.fields[i][..., c]
                                   - tiny_archive.fields[i + 1][..., c]).mean())
        assert np.mean(err_model) < np.mean(err_pers)


class TestEdmBaseline:
    def test_preconditioning_identities(self):
        """Karras et al. identities: c_in normalizes the noisy input to unit
        variance; c_skip + perfect-denoiser coefficients are consistent;
        c_out is bounded by sigma_data."""
        edm = EdmConfig()
        sig = np.linspace(0.05, 20, 200)
        # Var(c_in * (x0 + sigma z)) = c_in^2 (sigma_d^2 + sigma^2) = 1.
        np.testing.assert_allclose(edm.c_in(sig) ** 2
                                   * (SIGMA_DATA ** 2 + sig ** 2), 1.0,
                                   rtol=1e-6)
        np.testing.assert_allclose(edm.c_skip(np.asarray(SIGMA_DATA)), 0.5)
        assert np.all(edm.c_out(sig) < SIGMA_DATA + 1e-9)
        # EDM's loss weight (s^2 + sd^2) / (s sd)^2 times c_out^2 is 1:
        # the preconditioned target carries unit effective weight.
        weight = (sig ** 2 + SIGMA_DATA ** 2) / (sig * SIGMA_DATA) ** 2
        np.testing.assert_allclose(weight * edm.c_out(sig) ** 2,
                                   1.0, rtol=1e-6)

    def test_sigma_schedule_monotone(self):
        edm = EdmConfig(n_sample_steps=12)
        sched = edm.sigma_schedule()
        assert sched[0] == pytest.approx(SIGMA_MAX)
        assert sched[-1] == 0.0
        assert np.all(np.diff(sched) < 0)

    def test_training_and_sampling(self, tiny_archive):
        model = Aeris(TINY16, seed=2)
        trainer = EdmTrainer(
            model, tiny_archive,
            TrainerConfig(batch_size=4, peak_lr=3e-3, warmup_images=40,
                          total_images=40_000, decay_images=400, seed=2),
            EdmConfig(n_sample_steps=4))
        trainer.fit(40)
        assert np.isfinite(trainer.history).all()
        fc = trainer.forecaster()
        start = int(tiny_archive.split_indices("test")[0])
        ens = fc.ensemble_rollout(tiny_archive.fields[start], n_steps=2,
                                  n_members=2, seed=0, start_index=start)
        assert ens.shape[:2] == (2, 3)
        assert np.isfinite(ens).all()
        assert np.abs(ens[0, -1] - ens[1, -1]).max() > 1e-4
