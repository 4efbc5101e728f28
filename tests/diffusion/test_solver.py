"""Solver tests: with the analytically optimal velocity field for Gaussian
data, the PFODE integration must transport noise to the data distribution."""

import numpy as np
import pytest

from repro.diffusion import DpmSolver2S, SolverConfig, TrigFlow

flow = TrigFlow()


def sample(solver, velocity_fn, shape, rng):
    """One sample: the stacked entry point with one generator."""
    return solver.sample_members(velocity_fn, shape, [rng])[0]


def gaussian_velocity_fn(mu: float, s: float):
    """Optimal TrigFlow velocity for scalar data x0 ~ N(mu, s^2).

    E[x0 | x_t] and E[z | x_t] are linear in x_t (joint Gaussian); then
    v = cos(t) E[z|x_t] − sin(t) E[x0|x_t].
    """
    def velocity(x: np.ndarray, t: float) -> np.ndarray:
        c, si = np.cos(t), np.sin(t)
        denom = c * c * s * s + si * si
        resid = x - c * mu
        e_x0 = mu + (c * s * s) * resid / denom
        e_z = si * resid / denom
        return c * e_z - si * e_x0
    return velocity


class TestSolverConfig:
    def test_zero_steps_rejected_at_construction(self):
        """``schedule()`` cannot run an empty grid (it died there with an
        ``IndexError``); the config says so first."""
        with pytest.raises(ValueError, match="n_steps"):
            SolverConfig(n_steps=0)
        assert len(DpmSolver2S(flow, SolverConfig(n_steps=1)).schedule()) == 1

    def test_negative_churn_rejected_at_construction(self):
        """A negative churn silently disabled churn."""
        with pytest.raises(ValueError, match="churn"):
            SolverConfig(churn=-1.0)
        assert SolverConfig(churn=0.0).churn == 0.0


class TestSchedule:
    def test_monotone_decreasing_from_half_pi(self):
        solver = DpmSolver2S(flow, SolverConfig(n_steps=10))
        ts = solver.schedule()
        assert ts[0] == np.pi / 2
        assert np.all(np.diff(ts) < 0)
        np.testing.assert_allclose(ts[-1], flow.t_min, rtol=1e-5)

    def test_log_uniform_spacing(self):
        """Interior knots must be evenly spaced in tau = log tan t."""
        solver = DpmSolver2S(flow, SolverConfig(n_steps=8))
        ts = solver.schedule()
        taus = np.log(np.tan(ts[1:]) * flow.sigma_d)
        diffs = np.diff(taus)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-4)


class TestGaussianTransport:
    def test_recovers_mean_and_std(self):
        mu, s = 2.0, 0.5
        solver = DpmSolver2S(flow, SolverConfig(n_steps=20))
        rng = np.random.default_rng(0)
        samples = sample(solver, gaussian_velocity_fn(mu, s), (20_000,), rng)
        np.testing.assert_allclose(samples.mean(), mu, atol=0.05)
        np.testing.assert_allclose(samples.std(), s, atol=0.05)

    def test_more_steps_reduce_bias(self):
        mu, s = -1.0, 1.5
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        coarse = sample(DpmSolver2S(flow, SolverConfig(n_steps=4)),
                        gaussian_velocity_fn(mu, s), (20_000,), rng_a)
        fine = sample(DpmSolver2S(flow, SolverConfig(n_steps=24)),
                      gaussian_velocity_fn(mu, s), (20_000,), rng_b)
        assert abs(fine.std() - s) <= abs(coarse.std() - s) + 0.02

    def test_churn_preserves_distribution(self):
        """Churn must not bias the transported distribution."""
        mu, s = 0.5, 1.0
        solver = DpmSolver2S(flow, SolverConfig(n_steps=20, churn=0.3))
        rng = np.random.default_rng(2)
        samples = sample(solver, gaussian_velocity_fn(mu, s), (20_000,), rng)
        np.testing.assert_allclose(samples.mean(), mu, atol=0.07)
        np.testing.assert_allclose(samples.std(), s, atol=0.07)

    def test_different_noise_gives_different_samples(self):
        solver = DpmSolver2S(flow, SolverConfig(n_steps=10))
        vfn = gaussian_velocity_fn(0.0, 1.0)
        a = sample(solver, vfn, (100,), np.random.default_rng(3))
        b = sample(solver, vfn, (100,), np.random.default_rng(4))
        assert np.abs(a - b).max() > 0.1

    def test_deterministic_given_seed(self):
        solver = DpmSolver2S(flow, SolverConfig(n_steps=10, churn=0.2))
        vfn = gaussian_velocity_fn(0.0, 1.0)
        a = sample(solver, vfn, (50,), np.random.default_rng(5))
        b = sample(solver, vfn, (50,), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestChurnGeometry:
    def test_churned_state_on_marginal(self):
        """After churn, the state's implied time satisfies
        cos t' = cos t cos delta, and the marginal variance matches."""
        solver = DpmSolver2S(flow, SolverConfig())
        rng = np.random.default_rng(6)
        n = 200_000
        t, delta = 0.6, 0.25
        x0 = rng.normal(size=n)
        z = rng.normal(size=n)
        x_t = flow.interpolate(x0, z, np.asarray(t)).astype(np.float32)
        x_new, t_new = solver.churn_state(x_t, t, delta, rng)
        np.testing.assert_allclose(np.cos(t_new), np.cos(t) * np.cos(delta),
                                   rtol=1e-6)
        # Marginal of x_{t'}: var = cos^2 t' * var(x0) + sin^2 t'.
        np.testing.assert_allclose(x_new.var(), 1.0, rtol=0.02)
        # x0-coefficient: Cov(x', x0) = cos(t').
        cov = np.mean(x_new * x0)
        np.testing.assert_allclose(cov, np.cos(t_new), atol=0.01)

    def test_zero_delta_noop(self):
        solver = DpmSolver2S(flow, SolverConfig())
        x = np.ones(5, dtype=np.float32)
        x_new, t_new = solver.churn_state(x, 0.7, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(x_new, x)
        assert t_new == 0.7

    def test_churn_increases_time(self):
        solver = DpmSolver2S(flow, SolverConfig())
        x = np.random.default_rng(1).normal(size=100).astype(np.float32)
        _, t_new = solver.churn_state(x, 0.5, 0.2, np.random.default_rng(2))
        assert t_new > 0.5
