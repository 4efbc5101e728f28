"""Unit tests for nn layers: shapes, gradients, and layer semantics."""

import numpy as np
import pytest

from repro.nn import (
    AdaLNModulation,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    RMSNorm,
    SwiGLU,
    TimestepEmbedding,
    modulate,
    pixel_positional_field,
)
from repro.tensor import Tensor
from tests.gradcheck import check_gradients

rng = np.random.default_rng(7)


class TestModule:
    def test_parameter_registration(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.inner = Linear(3, 2)

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert names == ["w", "inner.weight", "inner.bias"]
        assert net.num_parameters() == 3 + 6 + 2

    def test_state_dict_roundtrip(self):
        a, b = Linear(4, 3, rng=np.random.default_rng(1)), Linear(4, 3, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_load_state_dict_rejects_mismatch(self):
        layer = Linear(4, 3)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((4, 3))})
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 4))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_load_state_dict_overwrites_each_array_in_place(self):
        """A load writes into each parameter's own array (a view of it
        sees the new values), cast to its dtype; a read-only array is
        rebound to a copy; a bad shape anywhere writes nothing."""
        a, b = Linear(4, 3, rng=np.random.default_rng(1)), \
            Linear(4, 3, rng=np.random.default_rng(2))
        weight, view = b.weight.data, b.weight.data[1:]
        b.bias.data.flags.writeable = False
        state = {k: v.astype(np.float64) for k, v in a.state_dict().items()}
        b.load_state_dict(state)
        assert b.weight.data is weight and b.weight.data.dtype == np.float32
        np.testing.assert_array_equal(view, a.weight.data[1:])
        assert b.bias.data.flags.writeable
        np.testing.assert_array_equal(b.bias.data, a.bias.data)
        before = b.state_dict()
        bad = {"weight": np.zeros((3, 4)), "bias": np.zeros(3) + 5}
        with pytest.raises(ValueError, match="shape mismatch"):
            b.load_state_dict(bad)
        for name, value in b.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_module_list(self):
        layers = ModuleList([Linear(2, 2) for _ in range(3)])
        assert len(layers) == 3
        assert len(list(layers.parameters())) == 6

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.inner = Linear(2, 2)

        net = Net()
        net.eval()
        assert not net.inner.training
        net.train()
        assert net.inner.training


class TestLinear:
    def test_forward_matches_manual(self):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected, rtol=1e-6)

    def test_gradients(self):
        w = rng.normal(size=(3, 2))
        x = rng.normal(size=(4, 3))
        def fn(ts):
            return ((ts[1] @ ts[0]) ** 2).sum()
        check_gradients(fn, [w, x])

    def test_zero_init(self):
        layer = Linear(4, 3, zero_init=True)
        assert np.all(layer.weight.data == 0)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestNorms:
    def test_rmsnorm_unit_rms(self):
        norm = RMSNorm(16)
        x = Tensor(rng.normal(size=(4, 16)) * 10)
        out = norm(x).numpy()
        rms = np.sqrt((out ** 2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_rmsnorm_gradient(self):
        def fn(ts):
            ms = (ts[0] * ts[0]).mean(axis=-1, keepdims=True)
            return (ts[0] * (ms + 1e-6) ** -0.5).sum()
        check_gradients(fn, [rng.normal(size=(2, 5))])

    def test_layernorm_zero_mean_unit_var(self):
        norm = LayerNorm(16)
        x = Tensor(rng.normal(size=(4, 16)) * 5 + 3)
        out = norm(x).numpy()
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(-1), 1.0, rtol=1e-3)

    def test_adaln_zero_init_is_identity_modulation(self):
        mod = AdaLNModulation(8, 16)
        t = Tensor(rng.normal(size=(2, 8)))
        alpha, beta, gamma = mod(t)
        assert np.all(alpha.numpy() == 0)
        assert np.all(beta.numpy() == 0)
        assert np.all(gamma.numpy() == 0)
        x = Tensor(rng.normal(size=(2, 10, 16)))
        out = modulate(x, alpha, beta)
        np.testing.assert_allclose(out.numpy(), x.numpy(), rtol=1e-6)

    def test_modulate_broadcasts_over_tokens(self):
        x = Tensor(np.ones((2, 3, 4)))
        alpha = Tensor(np.full((2, 4), 1.0))
        beta = Tensor(np.full((2, 4), 0.5))
        out = modulate(x, alpha, beta).numpy()
        np.testing.assert_allclose(out, 2.5)


class TestSwiGLU:
    def test_shape(self):
        ff = SwiGLU(8, 16, rng=rng)
        out = ff(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_param_count(self):
        ff = SwiGLU(8, 16)
        assert ff.num_parameters() == 3 * 8 * 16

    def test_end_to_end_gradient(self):
        ff = SwiGLU(4, 6, rng=rng)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        ff(x).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()
        for p in ff.parameters():
            assert p.grad is not None


class TestAttention:
    def test_shape_with_windows(self):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 5, 8)))  # (B, nW, T, D)
        assert attn(x).shape == (2, 3, 5, 8)

    def test_windows_do_not_mix(self):
        """Perturbing window 0 must not change window 1's output."""
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 2, 4, 8)).astype(np.float32)
        base = attn(Tensor(x)).numpy()
        x2 = x.copy()
        x2[:, 0] += 1.0
        out = attn(Tensor(x2)).numpy()
        np.testing.assert_allclose(out[:, 1], base[:, 1], atol=1e-6)
        assert np.abs(out[:, 0] - base[:, 0]).max() > 1e-3

    def test_permutation_equivariance_without_rope(self):
        """Dot-product attention without positional info is permutation
        equivariant over tokens."""
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 1, 6, 8)).astype(np.float32)
        perm = rng.permutation(6)
        out = attn(Tensor(x)).numpy()
        out_p = attn(Tensor(x[:, :, perm])).numpy()
        np.testing.assert_allclose(out_p, out[:, :, perm], atol=1e-5)

    def test_rope_breaks_permutation_equivariance(self):
        attn = MultiHeadAttention(8, 2, rng=rng)
        tokens, half = 6, 2
        angles = rng.uniform(0, 2 * np.pi, size=(tokens, half)).astype(np.float32)
        cos, sin = np.cos(angles), np.sin(angles)
        x = rng.normal(size=(1, 1, tokens, 8)).astype(np.float32)
        perm = np.roll(np.arange(tokens), 1)
        out = attn(Tensor(x), cos, sin).numpy()
        out_p = attn(Tensor(x[:, :, perm]), cos, sin).numpy()
        assert np.abs(out_p - out[:, :, perm]).max() > 1e-4

    def test_rope_preserves_norm(self):
        from repro.nn import apply_rotary
        x = Tensor(rng.normal(size=(2, 3, 4, 8)).astype(np.float32))
        angles = rng.uniform(0, 2 * np.pi, size=(4, 4)).astype(np.float32)
        out = apply_rotary(x, np.cos(angles), np.sin(angles))
        np.testing.assert_allclose(
            np.linalg.norm(out.numpy(), axis=-1),
            np.linalg.norm(x.numpy(), axis=-1), rtol=1e-5)

    def test_gradients_flow(self):
        attn = MultiHeadAttention(4, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 1, 3, 4)).astype(np.float32), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        for p in attn.parameters():
            assert p.grad is not None

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(8, 3)


class TestEmbeddings:
    def test_pixel_field_shape_and_scale(self):
        field = pixel_positional_field(16, 32)
        assert field.shape == (16, 32)
        assert np.abs(field).max() < 1.0

    def test_timestep_embedding_distinguishes_times(self):
        emb = TimestepEmbedding(16, rng=rng)
        t = Tensor(np.array([0.0, 0.5, 1.0, 1.5], dtype=np.float32))
        out = emb(t).numpy()
        assert out.shape == (4, 16)
        assert np.abs(out[0] - out[3]).max() > 1e-3
