"""Tests for consistency distillation (paper future-work item)."""

import numpy as np
import pytest

from repro.diffusion import (
    ConsistencyConfig,
    ConsistencyDistiller,
    SolverConfig,
    TrigFlow,
    consistency_jump,
)
from repro.model import Aeris
from tests.train.test_trainer import TINY16

flow = TrigFlow()
rng = np.random.default_rng(0)


class TestConsistencyJump:
    def test_recovers_x0_for_exact_velocity(self):
        """With the true velocity, the jump lands exactly on x0 from any t."""
        x0 = rng.normal(size=(4, 8)).astype(np.float32)
        z = rng.normal(size=x0.shape).astype(np.float32)
        for t_val in (0.2, 0.7, 1.3):
            t = np.full(4, t_val, dtype=np.float32)
            x_t = flow.interpolate(x0, z, t)
            v = flow.velocity_target(x0, z, t)
            np.testing.assert_allclose(consistency_jump(flow, x_t, v, t), x0,
                                       atol=1e-5)

    def test_identity_at_t_zero(self):
        x = rng.normal(size=(3, 5)).astype(np.float32)
        v = rng.normal(size=x.shape).astype(np.float32)
        np.testing.assert_allclose(
            consistency_jump(flow, x, v, np.zeros(3, np.float32)), x,
            atol=1e-6)


def make_inputs(batch=2, seed=0):
    r = np.random.default_rng(seed)
    cfg = TINY16
    x0 = r.normal(size=(batch, cfg.height, cfg.width, cfg.channels)
                  ).astype(np.float32)
    cond = r.normal(size=x0.shape).astype(np.float32)
    forc = r.normal(size=(batch, cfg.height, cfg.width,
                          cfg.forcing_channels)).astype(np.float32)
    return x0, cond, forc


class TestDistiller:
    @pytest.fixture(scope="class")
    def distiller(self):
        teacher = Aeris(TINY16, seed=0)
        student = Aeris(TINY16, seed=0)
        student.load_state_dict(teacher.state_dict())  # standard init
        return ConsistencyDistiller(teacher, student,
                                    config=ConsistencyConfig(seed=0))

    def test_boundaries_cover_range(self, distiller):
        b = distiller.boundaries
        assert b[0] == pytest.approx(flow.t_min, rel=1e-5)
        t_max = float(flow.tau_to_t(np.log(flow.sigma_max)))
        assert b[-1] == pytest.approx(t_max, rel=1e-5)
        assert np.all(np.diff(b) > 0)

    def test_train_step_decreases_loss(self, distiller):
        x0, cond, forc = make_inputs(batch=2)
        losses = [distiller.train_step(x0, cond, forc) for _ in range(25)]
        assert np.isfinite(losses).all()
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) + 1e-6

    def test_one_step_sample_shape_and_determinism(self, distiller):
        _, cond, forc = make_inputs(batch=1)
        out1 = distiller.sample_one_step(cond, forc,
                                         np.random.default_rng(3))
        out2 = distiller.sample_one_step(cond, forc,
                                         np.random.default_rng(3))
        assert out1.shape == cond.shape
        np.testing.assert_array_equal(out1, out2)

    def test_one_step_sample_unbatched(self, distiller):
        _, cond, forc = make_inputs(batch=1)
        out = distiller.sample_one_step(cond[0], forc[0],
                                        np.random.default_rng(4))
        assert out.shape == cond[0].shape

    def test_inference_cost_reduction(self, distiller):
        """The headline: 1 evaluation instead of 2 x n_steps."""
        teacher_cost = distiller.teacher_sample_cost(SolverConfig(n_steps=10))
        assert teacher_cost == 20
        # One-step student = 1 network evaluation -> 20x cheaper.
        assert teacher_cost // 1 >= 20


class TestDistilledVsTeacherOnGaussian:
    def test_distillation_matches_teacher_distribution(self):
        """End-to-end: distill a perfect analytic teacher for scalar
        Gaussian data; the student's one-step samples must roughly match
        the teacher's multi-step distribution."""
        # A 'network' wrapper implementing the exact velocity field.
        mu, s = 1.0, 0.5

        class AnalyticTeacher:
            def __call__(self, x_t, t, cond, forc):
                from repro.tensor import Tensor
                x = x_t.numpy() * flow.sigma_d
                tv = t.numpy().reshape((-1,) + (1,) * (x.ndim - 1))
                c, si = np.cos(tv), np.sin(tv)
                denom = c * c * s * s + si * si
                resid = x - c * mu
                e_x0 = mu + (c * s * s) * resid / denom
                e_z = si * resid / denom
                return Tensor((c * e_z - si * e_x0).astype(np.float32))

        teacher = AnalyticTeacher()
        # One consistency jump from pure noise with the exact velocity field
        # gives E[x0 | x_t]; its population mean is mu.
        from repro.tensor import Tensor
        n = 4096
        z = np.random.default_rng(0).normal(size=(n, 1, 1, 1)
                                            ).astype(np.float32)
        t = np.full(n, np.pi / 2, dtype=np.float32)
        v = teacher(Tensor(z), Tensor(t), None, None).numpy()
        out = consistency_jump(flow, z, v, t)
        assert abs(out.mean() - mu) < 0.1
