"""Tests for BF16 emulation and the FLOP counter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    Tensor,
    autocast_bf16,
    bf16_matmul_enabled,
    count_flops,
    round_bf16,
)
from tests.switches import maybe


class TestRoundBf16:
    def test_exact_values_pass_through(self):
        # Values with <= 8 significant mantissa bits are representable.
        x = np.array([1.0, -2.0, 0.5, 1.5, 0.0, 256.0], dtype=np.float32)
        np.testing.assert_array_equal(round_bf16(x), x)

    def test_low_bits_cleared(self):
        x = np.float32(1.0) + np.float32(2e-7)
        out = round_bf16(np.array([x]))
        bits = out.view(np.uint32)
        assert bits[0] & 0xFFFF == 0

    def test_relative_error_bound(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=10000).astype(np.float32)
        err = np.abs(round_bf16(x) - x)
        # BF16 has 8 mantissa bits -> relative error <= 2^-9 after rounding.
        assert np.all(err <= np.abs(x) * 2.0 ** -8 + 1e-38)

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 is exactly between 1.0 and 1 + 2^-7; ties go to even (1.0).
        x = np.array([1.0 + 2.0 ** -8], dtype=np.float32)
        np.testing.assert_array_equal(round_bf16(x), np.array([1.0], dtype=np.float32))

    def test_nan_and_inf(self):
        x = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
        out = round_bf16(x)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf

    @given(st.floats(min_value=-1e25, max_value=1e25, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v):
        once = round_bf16(np.array([v], dtype=np.float32))
        twice = round_bf16(once)
        np.testing.assert_array_equal(once, twice)

    @given(st.floats(min_value=1e-20, max_value=1e20, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_monotone_error(self, v):
        v32 = float(np.float32(v))
        out = round_bf16(np.array([v32], dtype=np.float32))[0]
        assert abs(out - v32) <= abs(v32) * 2.0 ** -8


class TestAutocast:
    def test_flag_scoping(self):
        assert not bf16_matmul_enabled()
        with autocast_bf16():
            assert bf16_matmul_enabled()
            with autocast_bf16():
                assert bf16_matmul_enabled()
            assert bf16_matmul_enabled()
        assert not bf16_matmul_enabled()

    def test_matmul_quantizes_inputs(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(16, 16)).astype(np.float32), rng.normal(size=(16, 16)).astype(np.float32)
        exact = a @ b
        with autocast_bf16():
            approx = (Tensor(a) @ Tensor(b)).numpy()
        expected = round_bf16(a) @ round_bf16(b)
        np.testing.assert_array_equal(approx, expected)
        # And the quantization is a real (small) perturbation.
        assert 0 < np.abs(approx - exact).max() < 0.1

    def test_bf16_training_step_stays_close_to_fp32(self):
        """A gradient computed under BF16 matmuls stays within ~1% of FP32."""
        rng = np.random.default_rng(3)
        w = rng.normal(size=(8, 8)).astype(np.float32)
        x = rng.normal(size=(32, 8)).astype(np.float32)

        def grad_of(wm, use_bf16):
            wt = Tensor(wm, requires_grad=True)
            with maybe(autocast_bf16, use_bf16):
                loss = ((Tensor(x) @ wt) ** 2).mean()
                loss.backward()
            return wt.grad.copy()

        g32, g16 = grad_of(w, False), grad_of(w, True)
        rel = np.abs(g16 - g32).max() / np.abs(g32).max()
        assert rel < 0.02


class TestFlopCounter:
    def test_forward_matmul_count(self):
        a, b = Tensor(np.ones((4, 8))), Tensor(np.ones((8, 3)))
        with count_flops() as fc:
            _ = a @ b
        assert fc.forward == 2 * 4 * 8 * 3
        assert fc.backward == 0

    def test_backward_counts_double(self):
        a = Tensor(np.ones((4, 8)), requires_grad=True)
        b = Tensor(np.ones((8, 3)), requires_grad=True)
        with count_flops() as fc:
            (a @ b).sum().backward()
        assert fc.forward == 2 * 4 * 8 * 3
        assert fc.backward == 4 * 4 * 8 * 3

    def test_batched_matmul(self):
        a, b = Tensor(np.ones((5, 4, 8))), Tensor(np.ones((5, 8, 3)))
        with count_flops() as fc:
            _ = a @ b
        assert fc.forward == 2 * 5 * 4 * 8 * 3

    def test_nested_counters_both_updated(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
        with count_flops() as outer:
            with count_flops() as inner:
                _ = a @ b
            _ = a @ b
        assert inner.forward == 2 * 2 * 2 * 2
        assert outer.forward == 2 * inner.forward

    def test_no_counter_no_cost(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
        _ = a @ b  # must not raise
