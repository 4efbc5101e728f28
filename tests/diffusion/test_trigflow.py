"""Tests for the TrigFlow parameterization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import TrigFlow

flow = TrigFlow()
T_MAX = float(flow.tau_to_t(np.log(flow.sigma_max)))
rng = np.random.default_rng(0)


class TestTimeMappings:
    def test_bounds(self):
        assert 0 < flow.t_min < T_MAX < np.pi / 2
        np.testing.assert_allclose(flow.t_min, np.arctan(0.2), rtol=1e-6)
        np.testing.assert_allclose(T_MAX, np.arctan(500.0), rtol=1e-6)

    def test_tau_roundtrip(self):
        taus = np.linspace(np.log(0.2), np.log(500), 17)
        back = np.log(np.tan(flow.tau_to_t(taus)) * flow.sigma_d)
        np.testing.assert_allclose(back, taus, rtol=1e-5)

    def test_sampled_t_in_range(self):
        t = flow.sample_t(rng, 10_000)
        assert np.all(t >= flow.t_min - 1e-6)
        assert np.all(t <= T_MAX + 1e-6)

    def test_tau_prior_is_log_uniform(self):
        taus = flow.sample_tau(np.random.default_rng(1), 50_000)
        lo, hi = np.log(0.2), np.log(500)
        # Uniform on [lo, hi]: mean and quartiles.
        np.testing.assert_allclose(taus.mean(), (lo + hi) / 2, atol=0.02)
        np.testing.assert_allclose(np.quantile(taus, 0.25),
                                   lo + 0.25 * (hi - lo), atol=0.05)

    def test_heavier_tail_than_uniform_t(self):
        """The log-uniform prior concentrates more mass at high noise than a
        uniform-t prior would (the 'heavy tailed' coverage claim)."""
        t = flow.sample_t(np.random.default_rng(2), 50_000)
        frac_high = (t > 1.4).mean()
        uniform_frac = (T_MAX - 1.4) / (T_MAX - flow.t_min)
        assert frac_high > 2 * uniform_frac


class TestInterpolant:
    def test_endpoints(self):
        x0 = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        z = rng.normal(size=x0.shape).astype(np.float32)
        at_zero = flow.interpolate(x0, z, np.zeros(2, np.float32))
        np.testing.assert_allclose(at_zero, x0, atol=1e-6)
        at_half_pi = flow.interpolate(x0, z, np.full(2, np.pi / 2, np.float32))
        np.testing.assert_allclose(at_half_pi, z, atol=1e-6)

    def test_variance_preserving(self):
        """With unit-variance data and noise, x_t has unit variance at all t."""
        r = np.random.default_rng(3)
        x0 = r.normal(size=200_000).astype(np.float32)
        z = r.normal(size=x0.shape).astype(np.float32)
        for t_val in [0.3, 0.8, 1.2]:
            x_t = np.cos(t_val) * x0 + np.sin(t_val) * z
            np.testing.assert_allclose(x_t.var(), 1.0, rtol=0.02)

    def test_velocity_is_time_derivative(self):
        """v_t = d x_t / d t, checked by finite differences."""
        x0 = rng.normal(size=(8,)).astype(np.float64)
        z = rng.normal(size=(8,)).astype(np.float64)
        t, eps = 0.7, 1e-5
        v = flow.velocity_target(x0, z, np.asarray(t))
        fd = (flow.interpolate(x0, z, np.asarray(t + eps))
              - flow.interpolate(x0, z, np.asarray(t - eps))) / (2 * eps)
        np.testing.assert_allclose(v, fd, rtol=1e-4, atol=1e-6)

    def test_denoise_inverts_interpolant(self):
        x0 = rng.normal(size=(4, 5)).astype(np.float32)
        z = rng.normal(size=x0.shape).astype(np.float32)
        t = np.array([0.4, 0.9, 1.3, 0.1], dtype=np.float32)
        x_t = flow.interpolate(x0, z, t)
        v = flow.velocity_target(x0, z, t)
        recovered = flow.denoise_from_velocity(x_t, v, t)
        np.testing.assert_allclose(recovered, x0, atol=1e-5)

    @given(st.floats(min_value=0.05, max_value=1.5))
    @settings(max_examples=50, deadline=None)
    def test_rotation_is_norm_preserving(self, t_val):
        """[x_t; v] is a rotation of [x0; z]: |x_t|^2 + |v|^2 = |x0|^2 + |z|^2."""
        r = np.random.default_rng(5)
        x0 = r.normal(size=32)
        z = r.normal(size=32)
        t = np.asarray(t_val)
        x_t = flow.interpolate(x0, z, t)
        v = flow.velocity_target(x0, z, t)
        np.testing.assert_allclose(
            (x_t ** 2).sum() + (v ** 2).sum(),
            (x0 ** 2).sum() + (z ** 2).sum(), rtol=1e-6)


class TestTrainingPair:
    def test_shapes_and_dtype(self):
        x0 = rng.normal(size=(3, 8, 8, 2)).astype(np.float32)
        x_t, t, v = flow.training_pair(x0, np.random.default_rng(1),
                                       np.random.default_rng(2))
        assert x_t.shape == x0.shape and v.shape == x0.shape
        assert t.shape == (3,)
        assert x_t.dtype == np.float32

    def test_shared_t_seed_rule(self):
        """Ranks sharing the t-generator seed see identical noise levels but
        independent noise fields (the paper's model-parallel seeding rule)."""
        x0 = rng.normal(size=(4, 8, 8, 2)).astype(np.float32)
        _, t_a, _ = flow.training_pair(x0, np.random.default_rng(42),
                                       np.random.default_rng(1))
        x_b, t_b, _ = flow.training_pair(x0, np.random.default_rng(42),
                                         np.random.default_rng(2))
        x_c, t_c, _ = flow.training_pair(x0, np.random.default_rng(42),
                                         np.random.default_rng(3))
        np.testing.assert_array_equal(t_a, t_b)
        np.testing.assert_array_equal(t_b, t_c)
        assert np.abs(x_b - x_c).max() > 1e-3


class TestCustomSigma:
    def test_sigma_d_scales_noise(self):
        custom = TrigFlow(sigma_d=2.0)
        r = np.random.default_rng(7)
        x0 = np.zeros((100_000,), dtype=np.float32)
        x_t, _, _ = custom.training_pair(x0, np.random.default_rng(0), r)
        # At t = pi/2 the sample is pure noise with std sigma_d; on average
        # std is between 0 and 2 but the noise component must reflect 2.0.
        z = r.normal(0, 2.0, size=10)
        assert z.std() > 1.0  # sanity on generator use
        assert x_t.std() > 0.5
