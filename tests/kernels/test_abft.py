"""ABFT checksum guard: bit-exact when clean, zero false positives
(including catastrophic cancellation), full detection of injected
exponent-bit flips with row-level localization, and telemetry booking."""

import numpy as np
import pytest

from repro.kernels import abft_guard, guard_gemm
from repro.resilience import (
    ComputeCorruption,
    ComputeFault,
    FaultInjector,
    FaultPlan,
    inject_compute,
)
from repro.tensor import Tensor

from .test_golden import packed_attention

# Batched and plain shapes, plus cancellation-heavy operand pairs whose
# products are rounding noise — the tolerance must come from the operand
# magnitudes, not from C, or these would false-positive.
SHAPES = [((16, 8), (8, 16)), ((4, 4, 16, 8), (4, 4, 8, 16)),
          ((2, 3, 5, 32), (2, 3, 32, 7))]


def _operands(shape_a, shape_b, seed, dtype=np.float32, cancel=None):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape_a).astype(dtype)
    b = rng.normal(size=shape_b).astype(dtype)
    if cancel == "a":  # rows of [a; -a] against b: row sums cancel in C
        a = np.concatenate([a, -a], axis=-2)
    elif cancel == "b":  # [b, -b]: every row sum of C cancels to ~0
        b = np.concatenate([b, -b], axis=-1)
    return a, b


def _gemm_fault(nth=0, step=0):
    injector = FaultInjector(FaultPlan(
        events=(ComputeFault(step=step, site="gemm", nth=nth),)))
    injector.advance(step)
    return injector


def abft_matmul(a, b, label="matmul"):
    """``a @ b`` through :func:`guard_gemm` with the guard armed."""
    with abft_guard():
        return guard_gemm(a, b, np.matmul(a, b), label)


class TestCleanPath:
    def test_abft_matmul_bit_exact(self):
        a, b = _operands((16, 8), (8, 16), seed=0)
        np.testing.assert_array_equal(abft_matmul(a, b), np.matmul(a, b))

    def test_guard_gemm_returns_same_array(self):
        a, b = _operands((4, 4, 16, 8), (4, 4, 8, 16), seed=1)
        c = np.matmul(a, b)
        with abft_guard():
            assert guard_gemm(a, b, c) is c

    @pytest.mark.parametrize("cancel", [None, "a", "b"])
    @pytest.mark.parametrize("shape_a,shape_b", SHAPES)
    def test_no_false_positives(self, shape_a, shape_b, cancel):
        for seed in range(25):
            a, b = _operands(shape_a, shape_b, seed, cancel=cancel)
            abft_matmul(a, b)  # must not raise

    def test_no_false_positives_float64(self):
        for seed in range(10):
            a, b = _operands((16, 8), (8, 16), seed, dtype=np.float64)
            abft_matmul(a, b)


class TestDetection:
    def test_every_seeded_flip_detected(self):
        a, b = _operands((4, 4, 16, 8), (4, 4, 8, 16), seed=2)
        for seed in range(25):
            injector = FaultInjector(FaultPlan(
                seed=seed,
                events=(ComputeFault(step=0, site="gemm", nth=0),)))
            with inject_compute(injector), \
                    pytest.raises(ComputeCorruption) as exc:
                abft_matmul(a, b)
            assert exc.value.site == "gemm"
            assert injector.injected == {"sdc_gemm": 1}

    def test_localized_to_row(self):
        a, b = _operands((16, 8), (8, 16), seed=3)
        with inject_compute(_gemm_fault()), \
                pytest.raises(ComputeCorruption, match="row checksum"):
            abft_matmul(a, b, label="matmul")
        # The detail names specific rows, not just "somewhere".
        try:
            with inject_compute(_gemm_fault()):
                abft_matmul(a, b)
        except ComputeCorruption as exc:
            assert "row(s) [" in exc.detail and "matmul:" in exc.detail

    def test_nonfinite_corruption_detected(self):
        a, b = _operands((16, 8), (8, 16), seed=4)
        c = np.matmul(a, b)
        c[3, 5] = np.nan
        with abft_guard(), pytest.raises(ComputeCorruption):
            guard_gemm(a, b, c)

    def test_detection_books_metrics_and_events(self):
        import repro.obs as obs
        a, b = _operands((16, 8), (8, 16), seed=5)
        obs.enable()
        _, recorder = obs.enable_health()
        try:
            with inject_compute(_gemm_fault()), \
                    pytest.raises(ComputeCorruption):
                abft_matmul(a, b)
            registry = obs.metrics()
            assert registry.counter(
                "resilience.sdc_detected").total(kind="sdc_gemm") == 1
            assert recorder.events(kind="compute.sdc_detected",
                                   min_severity="critical")
        finally:
            obs.disable()


class TestGuardToggle:
    def test_disarmed_guard_serves_corruption_silently(self):
        """Without ABFT armed, an injected flip passes through — the
        undefended baseline the ISSUE's chaos comparison requires."""
        a, b = _operands((16, 8), (8, 16), seed=6)
        clean = np.matmul(a, b)
        injector = _gemm_fault()
        with inject_compute(injector):
            corrupt = guard_gemm(a, b, np.matmul(a, b))
        assert injector.injected == {"sdc_gemm": 1}
        assert not np.array_equal(corrupt, clean)  # silently wrong

    def test_guard_scope_nests_and_restores(self):
        a, b = _operands((16, 8), (8, 16), seed=9)
        bad = np.matmul(a, b)
        bad[0, 0] = np.nan

        def armed():
            try:
                guard_gemm(a, b, bad)
            except ComputeCorruption:
                return True
            return False

        assert not armed()
        with abft_guard():
            assert armed()
            with abft_guard():
                assert armed()
            assert armed()
        assert not armed()


class TestGuardedAttention:
    def _qkv(self, seed=7):
        rng = np.random.default_rng(seed)
        return tuple(Tensor(rng.normal(size=(2, 3, 16, 8)).astype(
            np.float32), requires_grad=True) for _ in range(3))

    def test_bit_exact_under_guard(self):
        q, k, v = self._qkv()
        ref = packed_attention(q, k, v)
        with abft_guard():
            guarded = packed_attention(q, k, v)
        np.testing.assert_array_equal(guarded.numpy(), ref.numpy())

    def test_injected_flip_in_attention_detected(self):
        q, k, v = self._qkv(seed=8)
        for nth in (0, 1):  # scores GEMM, then the probs@V GEMM
            with abft_guard(), inject_compute(_gemm_fault(nth=nth)), \
                    pytest.raises(ComputeCorruption, match="attention"):
                packed_attention(q, k, v)
