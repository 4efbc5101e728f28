"""Gradient-correctness tests for the autograd engine."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, no_grad, stack
from tests.gradcheck import check_gradients

rng = np.random.default_rng(0)


class TestElementwise:
    def test_add_broadcast(self):
        check_gradients(lambda ts: (ts[0] + ts[1]).sum(),
                        [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_sub(self):
        check_gradients(lambda ts: (ts[0] - ts[1]).sum(),
                        [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_mul_broadcast(self):
        check_gradients(lambda ts: (ts[0] * ts[1]).sum(),
                        [rng.normal(size=(2, 1, 3)), rng.normal(size=(4, 1))])

    def test_div(self):
        check_gradients(lambda ts: (ts[0] / ts[1]).sum(),
                        [rng.normal(size=(3, 3)), rng.uniform(1.0, 2.0, size=(3, 3))])

    def test_pow(self):
        check_gradients(lambda ts: (ts[0] ** 3).sum(), [rng.normal(size=(5,))])

    def test_neg(self):
        check_gradients(lambda ts: (-ts[0]).sum(), [rng.normal(size=(4,))])

    @pytest.mark.parametrize("op", ["sin", "cos", "silu"])
    def test_unary(self, op):
        check_gradients(lambda ts: getattr(ts[0], op)().sum(),
                        [rng.normal(size=(3, 4))])

    def test_log_sqrt(self):
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_gradients(lambda ts: ts[0].log().sum(), [x])
        check_gradients(lambda ts: (ts[0] ** 0.5).sum(), [x])

    def test_clip(self):
        x = rng.normal(size=(20,)) * 2
        x[np.abs(np.abs(x) - 1.0) < 1e-2] += 0.1  # avoid clip boundaries
        check_gradients(lambda ts: ts[0].clip(-1.0, 1.0).sum(), [x])


class TestMatmul:
    def test_2d(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(),
                        [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))])

    def test_batched(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(),
                        [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))])

    def test_broadcast_batch(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(),
                        [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(4, 5))])

    def test_matvec(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(),
                        [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_vecmat(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(),
                        [rng.normal(size=(4,)), rng.normal(size=(4, 3))])


class TestReductions:
    def test_sum_axis(self):
        check_gradients(lambda ts: (ts[0].sum(axis=1) ** 2).sum(),
                        [rng.normal(size=(3, 4))])

    def test_sum_keepdims(self):
        check_gradients(lambda ts: (ts[0] / ts[0].sum(axis=-1, keepdims=True)).sum(),
                        [rng.uniform(1.0, 2.0, size=(3, 4))])

    def test_mean(self):
        check_gradients(lambda ts: (ts[0].mean(axis=(0, 2)) ** 2).sum(),
                        [rng.normal(size=(2, 3, 4))])

    def test_var(self):
        """The variance, composed: ``x`` reaches the loss twice."""
        def var(ts):
            centered = ts[0] - ts[0].mean(axis=-1, keepdims=True)
            return (centered * centered).mean(axis=-1).sum()
        check_gradients(var, [rng.normal(size=(3, 5))])

    def test_max(self):
        x = rng.normal(size=(3, 5))
        check_gradients(lambda ts: ts[0].max(axis=1).sum(), [x])


class TestShapes:
    def test_reshape(self):
        check_gradients(lambda ts: (ts[0].reshape(2, 6) ** 2).sum(),
                        [rng.normal(size=(3, 4))])

    def test_transpose(self):
        check_gradients(lambda ts: (ts[0].transpose(2, 0, 1) ** 2).sum(),
                        [rng.normal(size=(2, 3, 4))])

    def test_swapaxes(self):
        check_gradients(lambda ts: (ts[0].swapaxes(0, 2) ** 3).sum(),
                        [rng.normal(size=(2, 3, 4))])

    def test_roll(self):
        check_gradients(lambda ts: (ts[0].roll(2, axis=1) * ts[0]).sum(),
                        [rng.normal(size=(3, 5))])

    def test_roll_tuple(self):
        check_gradients(lambda ts: (ts[0].roll((1, -2), axis=(0, 1)) ** 2).sum(),
                        [rng.normal(size=(4, 5))])

    def test_getitem_slice(self):
        check_gradients(lambda ts: (ts[0][1:, ::2] ** 2).sum(),
                        [rng.normal(size=(4, 6))])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda ts: (ts[0][idx] ** 2).sum(),
                        [rng.normal(size=(4, 3))])

    def test_concat(self):
        check_gradients(lambda ts: (concat(ts, axis=1) ** 2).sum(),
                        [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))])

    def test_stack(self):
        check_gradients(lambda ts: (stack(ts, axis=0) ** 2).sum(),
                        [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])


class TestSoftmax:
    def test_gradient(self):
        w = rng.normal(size=(3, 5))
        check_gradients(lambda ts: (ts[0].softmax(axis=-1) * w).sum(),
                        [rng.normal(size=(3, 5))])

    def test_rows_sum_to_one(self):
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        np.testing.assert_allclose(x.softmax(-1).numpy().sum(-1), 1.0, rtol=1e-5)

    def test_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        out = x.softmax(-1).numpy()
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], 0.5, rtol=1e-5)


class TestGraphMechanics:
    def test_grad_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_diamond_graph(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a * b).backward()  # d(6x^2)/dx = 12x = 36
        np.testing.assert_allclose(x.grad, [36.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_detach(self):
        """Re-wrapping the array is the stop-gradient (what the
        distillation target and every sampler input rely on)."""
        x = Tensor([1.0], requires_grad=True)
        y = Tensor(x.data) * 3 + x
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_twice_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 2).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_float32_default(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.arange(3)).dtype == np.float32

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])
