"""Tests for AdamW, EMA, and the LR schedule."""

import numpy as np
import pytest

from repro.nn import EMA, AdamW, Linear, Parameter, WarmupConstantDecay
from repro.tensor import Tensor


def quadratic_loss(param: Parameter, target: np.ndarray) -> Tensor:
    diff = param - Tensor(target)
    return (diff * diff).sum()


class TestAdamW:
    def test_minimizes_quadratic(self):
        target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        p = Parameter(np.zeros(3, dtype=np.float32))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        for _ in range(300):
            p.zero_grad()
            quadratic_loss(p, target).backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-2)

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.full(4, 10.0, dtype=np.float32))
        opt = AdamW([p], lr=0.01, weight_decay=0.5)
        for _ in range(10):
            p.zero_grad()
            (p * 0.0).sum().backward()  # zero gradient; only decay acts
            opt.step()
        assert np.all(np.abs(p.data) < 10.0)
        np.testing.assert_allclose(p.data, 10.0 * (1 - 0.01 * 0.5) ** 10, rtol=1e-5)

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([p], lr=0.1)
        opt.step()  # no grad set: should be a no-op beyond nothing
        np.testing.assert_array_equal(p.data, np.ones(2, dtype=np.float32))

    def test_first_step_magnitude_is_lr(self):
        """With bias correction, the first Adam step has magnitude ~lr."""
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = AdamW([p], lr=0.01, weight_decay=0.0)
        p.grad = np.array([5.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(abs(p.data[0]), 0.01, rtol=1e-4)


class TestEMA:
    def test_halflife_semantics(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        ema = EMA(layer, halflife_images=100.0)
        # After exactly one half-life of images, the shadow should be halfway
        # between its start and the (constant) current weights.
        start = ema.shadow["weight"].copy()
        layer.weight.data = start + 1.0
        ema.update(images_per_step=100.0)
        np.testing.assert_allclose(ema.shadow["weight"], start + 0.5, rtol=1e-6)

    def test_copy_to_model(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        ema = EMA(layer)
        original = ema.shadow["weight"].copy()
        layer.weight.data += 5.0
        ema.copy_to(layer)
        np.testing.assert_allclose(layer.weight.data, original)

    def test_converges_to_constant_weights(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        ema = EMA(layer, halflife_images=10.0)
        layer.weight.data = np.full_like(layer.weight.data, 7.0)
        for _ in range(100):
            ema.update(images_per_step=10.0)
        np.testing.assert_allclose(ema.shadow["weight"], 7.0, rtol=1e-5)


class TestSchedule:
    def test_paper_shape(self):
        sched = WarmupConstantDecay(peak_lr=5e-4, warmup_images=50_000,
                                    total_images=3_000_000, decay_images=100_000)
        assert sched.lr_at(0) == 0.0
        assert sched.lr_at(25_000) == pytest.approx(2.5e-4)
        assert sched.lr_at(50_000) == pytest.approx(5e-4)
        assert sched.lr_at(1_500_000) == pytest.approx(5e-4)
        assert sched.lr_at(2_950_000) == pytest.approx(2.5e-4)
        assert sched.lr_at(3_000_000) == 0.0
        assert sched.lr_at(5_000_000) == 0.0

    def test_monotone_within_segments(self):
        sched = WarmupConstantDecay(1e-3, 10, 100, 20)
        ramp = [sched.lr_at(x) for x in range(0, 11)]
        assert all(b >= a for a, b in zip(ramp, ramp[1:]))
        decay = [sched.lr_at(x) for x in range(80, 101)]
        assert all(b <= a for a, b in zip(decay, decay[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WarmupConstantDecay(1e-3, warmup_images=60, total_images=100,
                                decay_images=50)
        sched = WarmupConstantDecay(1e-3, 10, 100, 20)
        with pytest.raises(ValueError):
            sched.lr_at(-1)
