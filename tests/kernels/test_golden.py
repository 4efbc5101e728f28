"""Golden tests: every optimized kernel path must be *bit-exact* against the
reference implementation it replaces — same outputs, same gradients, same
FLOP counts, with and without emulated BF16."""

import numpy as np
import pytest

from repro.kernels import (
    abft,
    abft_guard,
    disable_kernels,
    fused_apply_rotary,
    fused_dot_product_attention,
    fused_gate_residual,
    fused_swiglu_forward,
    kernels_enabled,
    plan_merge,
    plan_partition,
    rope_tables,
    window_plan,
)
from repro.kernels.fused import _key_sum, rotate_pairs
from repro.model import SMALL, Aeris, AerisConfig, SwinBlock
from repro.model.blocks import _gated_residual
from repro.model.rope import axial_rope_table
from repro.model.windows import cyclic_shift, window_merge, window_partition
from repro.nn import (
    AdaLNModulation,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    RMSNorm,
    SwiGLU,
    TimestepEmbedding,
)
from repro.nn.attention import apply_rotary, dot_product_attention
from repro.resilience import inject_compute
from repro.tensor import (
    Tensor,
    autocast_bf16,
    count_flops,
    no_grad,
    stack,
)
from repro.train import Trainer, TrainerConfig
from tests.switches import maybe

rng = np.random.default_rng(7)

#: The model every bench_e2e workload runs (repro.quickstart_components).
QUICKSTART = AerisConfig(
    name="quickstart", height=16, width=32, channels=9, forcing_channels=3,
    dim=32, heads=4, ffn_dim=64, swin_layers=2, blocks_per_layer=2,
    window=(4, 4), time_freqs=8)

#: The guarded GEMMs of one Swin block, in execution order.  The SDC
#: injector addresses compute faults by this ordinal, so the sequence is
#: part of the kernels' contract.
BLOCK_GUARD_LABELS = ["attention.scores", "attention.out", "swiglu.gate",
                      "swiglu.up", "swiglu.down"]


def unblind(model, seed: int = 11):
    """Seeded fill of every all-zero parameter.  adaLN-Zero initialises the
    gate projection to zero, so a fresh model computes ``x + branch·0`` and
    a golden comparison of it never sees attention, SwiGLU or the norms."""
    fill = np.random.default_rng(seed)
    for p in model.parameters():
        if not p.data.any():
            p.data = fill.normal(scale=0.2, size=p.data.shape).astype(
                np.float32)
    return model


def model_inputs(config, rows: int, seed: int | None = None):
    local = np.random.default_rng(rows if seed is None else seed)
    grid = (rows, config.height, config.width)
    return (Tensor(local.normal(size=(*grid, config.channels)).astype(
                np.float32)),
            Tensor(np.linspace(0.1, 1.5, rows, dtype=np.float32)),
            Tensor(local.normal(size=(*grid, config.channels)).astype(
                np.float32)),
            Tensor(local.normal(size=(*grid, config.forcing_channels)
                                ).astype(np.float32)))


def _qkv(shape=(2, 3, 16, 8), seed=7):
    local = np.random.default_rng(seed)
    return tuple(
        Tensor(local.normal(size=shape).astype(np.float32),
               requires_grad=True)
        for _ in range(3))


def packed_attention(q, k, v, rope=None):
    """Rotary (given ``rope = (cos, sin)``) on Q and K, then the attention
    core, through the packed kernels as ``MultiHeadAttention`` calls them.

    The head-major ``(..., H, T, hd)`` operands (``(T, hd)``: one head) of
    :func:`dot_product_attention` are stacked into a fresh packed
    ``(..., T, 3, H, hd)`` projection — a ``stack`` node for Tensors — Q
    and K are rotated in place in it, and the output is handed back
    head-major.
    """
    raw = type(q) is np.ndarray
    one_head = q.ndim == 2
    parts = [x.reshape(x.shape[0], 1, x.shape[1]) if one_head
             else np.swapaxes(x, -2, -3) if raw else x.swapaxes(-2, -3)
             for x in (q, k, v)]
    packed = np.stack(parts, axis=-3) if raw else stack(parts, axis=-3)
    rotary = None
    if rope is not None:
        rotary = tuple(table[:, None, None, :] for table in rope)
        fused_apply_rotary((packed if raw else packed.data)[..., :2, :, :],
                           *rotary)
    out = fused_dot_product_attention(packed, rotary)
    if one_head:
        return out.reshape(out.shape[0], out.shape[-1])
    return np.swapaxes(out, -2, -3) if raw else out.swapaxes(-2, -3)


class TestFusedAttention:
    @pytest.mark.parametrize("bf16", [False, True])
    def test_forward_bit_exact(self, bf16):
        q, k, v = _qkv()
        with maybe(autocast_bf16, bf16):
            ref = dot_product_attention(q, k, v)
            fused = packed_attention(q, k, v)
        np.testing.assert_array_equal(fused.numpy(), ref.numpy())

    @pytest.mark.parametrize("bf16", [False, True])
    def test_gradients_bit_exact(self, bf16):
        shape = (2, 3, 16, 8)
        g = rng.normal(size=shape).astype(np.float32)
        grads = {}
        for name, core in (("ref", dot_product_attention),
                           ("fused", packed_attention)):
            q, k, v = _qkv(shape)
            with maybe(autocast_bf16, bf16):
                core(q, k, v).backward(g)
            grads[name] = (q.grad, k.grad, v.grad)
        for a, b in zip(grads["ref"], grads["fused"]):
            np.testing.assert_array_equal(a, b)

    def test_flops_match_reference(self):
        shape = (1, 2, 8, 4)
        g = np.ones(shape, dtype=np.float32)
        counts = {}
        for name, core in (("ref", dot_product_attention),
                           ("fused", packed_attention)):
            q, k, v = _qkv(shape)
            with count_flops() as fc:
                core(q, k, v).backward(g)
            counts[name] = fc.total
        assert counts["fused"] == counts["ref"] > 0

    def test_inference_path_bit_exact(self):
        # The second shape is benchmarks' ``window_attention_forward``:
        # rows of 64, the first length on the row-wise side of the
        # softmax layout selector.
        for shape in ((2, 3, 16, 8), (2, 16, 4, 64, 16)):
            q, k, v = _qkv(shape)
            with no_grad():
                ref = dot_product_attention(q, k, v)
                fused = packed_attention(q, k, v)
            np.testing.assert_array_equal(fused.numpy(), ref.numpy())


class TestFusedRotary:
    def test_forward_and_backward_bit_exact(self):
        """The rotation in place, and the inverse rotation the attention
        core's backward applies in place, against ``apply_rotary`` and its
        chain's gradient."""
        window, head_dim = (4, 4), 8
        cos, sin = rope_tables(window, head_dim)
        cos, sin = cos[:, None, :], sin[:, None, :]
        shape = (2, 5, 16, 3, head_dim)  # (..., tokens, heads, head_dim)
        g = rng.normal(size=shape).astype(np.float32)
        x_ref = Tensor(rng.normal(size=shape).astype(np.float32),
                       requires_grad=True)
        ref = apply_rotary(x_ref, cos, sin)
        fused = fused_apply_rotary(x_ref.data.copy(), cos, sin)
        np.testing.assert_array_equal(fused, ref.numpy())
        ref.backward(g)
        back = g.copy()
        rotate_pairs(back, cos, sin, inverse=True, out=back)
        np.testing.assert_array_equal(back, x_ref.grad)

    def test_rope_tables_match_model_builder(self):
        cos, sin = rope_tables((4, 6), 8)
        ref_cos, ref_sin = axial_rope_table((4, 6), 8)
        np.testing.assert_array_equal(cos, ref_cos)
        np.testing.assert_array_equal(sin, ref_sin)
        assert not cos.flags.writeable and not sin.flags.writeable


#: tokens -> window; 15/16/24 take the key-major softmax, 144/576 the
#: row-wise one, and 15, 24 and 144 are not powers of two.
WINDOWS = {15: (3, 5), 16: (4, 4), 24: (4, 6), 144: (12, 12), 576: (24, 24)}
#: The key-major sum's branches: fewer than eight keys, one group of eight
#: plus one, whole groups, groups plus a tail of 4 and of 7, and 64 — the
#: first row length on the row-wise side of ``_TRANSPOSED_MAX_BELOW``.
SOFTMAX_WINDOWS = {4: (2, 2), 9: (3, 3), 32: (4, 8), 36: (6, 6),
                   48: (6, 8), 63: (7, 9), 64: (8, 8)}
LAYOUTS = ("contiguous", "packed", "transposed")


def _layout_views(base: Tensor, layout: str):
    """``(q, k, v)`` of shape ``lead + (tokens, head_dim)`` cut from one
    leaf, so the three input gradients arrive in ``base.grad``."""
    if layout == "contiguous":      # base: (3,) + lead + (T, hd)
        return base[0], base[1], base[2]
    if layout == "transposed":      # base: (3,) + lead + (hd, T)
        return tuple(base[i].swapaxes(-1, -2) for i in range(3))
    # packed, as MultiHeadAttention holds it: lead[:-1] + (T, 3, H, hd) with
    # H = lead[-1], or (T, 3, hd) without a head axis.
    if base.ndim == 3:
        return base[:, 0], base[:, 1], base[:, 2]
    return tuple(base[..., i, :, :].swapaxes(-2, -3) for i in range(3))


def _base_shape(layout, lead, tokens, head_dim):
    if layout == "contiguous":
        return (3, *lead, tokens, head_dim)
    if layout == "transposed":
        return (3, *lead, head_dim, tokens)
    return (*lead[:-1], tokens, 3, *lead[-1:], head_dim)


def _attend(base: Tensor, layout: str, cos, sin, fused: bool) -> Tensor:
    """Rotary on Q and K, then the attention core — reference primitives
    or the packed kernels."""
    q, k, v = _layout_views(base, layout)
    if fused:
        return packed_attention(q, k, v, (cos, sin))
    return dot_product_attention(apply_rotary(q, cos, sin),
                                 apply_rotary(k, cos, sin), v)


class TestAttentionLayouts:
    """Rotary + core against ``apply_rotary`` + ``dot_product_attention``
    over input layout x tokens x head_dim x lead dims, each under BF16
    on/off x ABFT guard on/off x grad/no_grad."""

    @pytest.mark.parametrize("lead", [(), (1,), (2, 3)],
                             ids=["lead0", "lead1", "lead2x3"])
    @pytest.mark.parametrize("head_dim", [4, 8, 12])
    @pytest.mark.parametrize("tokens", sorted(WINDOWS))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_outputs_gradients_flops_bit_exact(self, layout, tokens,
                                               head_dim, lead):
        self._check(layout, WINDOWS[tokens], head_dim, lead)

    def test_packed_64_tokens_head_dim_16(self):
        """ROADMAP fact v's named case, ``SMALL``'s window and head_dim: the
        BF16 d(Q) was 1 ulp off while the kernel rounded K rather than the
        chain's Kᵀ (a GEMM in another BLAS layout)."""
        self._check("packed", SMALL.window, SMALL.dim // SMALL.heads, (2, 4))

    @pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
    @pytest.mark.parametrize("tokens", [9, 15, 16, 24, 32, 36])
    def test_packed_head_dim_32(self, tokens, bf16):
        """ROADMAP fact v's FP32 half: the scores GEMM copied Kᵀ contiguous
        (BLAS NN) where the chain multiplies the transposed view (NT) — 1
        ulp apart at head_dim 32 for these windows.  BF16 rounds Kᵀ
        contiguous on both sides."""
        window = {**WINDOWS, **SOFTMAX_WINDOWS}[tokens]
        self._check("packed", window, 32, (2, 3), bf16s=(bf16,))

    @pytest.mark.parametrize("tokens", sorted(SOFTMAX_WINDOWS))
    def test_softmax_row_lengths(self, tokens):
        """Output and gradients at every branch of the key-major sum and on
        both sides of ``_TRANSPOSED_MAX_BELOW``."""
        self._check("packed", SOFTMAX_WINDOWS[tokens], 8, (2, 3))

    @pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
    def test_small_window_through_the_module(self, bf16):
        """``MultiHeadAttention`` at ``SMALL``'s width, heads and window:
        output, input and weight gradients of the taped kernels against the
        ``disable_kernels()`` chain (BF16: two of them 1 ulp off before)."""
        cos, sin = rope_tables(SMALL.window, SMALL.dim // SMALL.heads)
        local = np.random.default_rng(5)
        x = local.normal(size=(2, 3, 64, SMALL.dim)).astype(np.float32)
        g = local.normal(size=x.shape).astype(np.float32)
        got = []
        for kernels in (True, False):
            attn = MultiHeadAttention(SMALL.dim, SMALL.heads,
                                      rng=np.random.default_rng(6))
            leaf = Tensor(x, requires_grad=True)
            with maybe(autocast_bf16, bf16), abft_guard():
                if kernels:
                    out = attn(leaf, cos, sin)
                else:
                    with disable_kernels():
                        out = attn(leaf, cos, sin)
                out.backward(g)
            got.append([out.numpy(), leaf.grad]
                       + [p.grad for p in attn.parameters()])
        for a, b in zip(*got, strict=True):
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def _check(layout, window, head_dim, lead, bf16s=(False, True)):
        tokens = window[0] * window[1]
        cos, sin = rope_tables(window, head_dim)
        local = np.random.default_rng(tokens * 31 + head_dim)
        data = local.normal(size=_base_shape(
            layout, lead, tokens, head_dim)).astype(np.float32)
        g = local.normal(size=(*lead, tokens, head_dim)).astype(np.float32)
        for bf16 in bf16s:
            for guard in (False, True):
                for grad in (True, False):
                    got = {}
                    for fused in (False, True):
                        base = Tensor(data.copy(), requires_grad=grad)
                        with maybe(autocast_bf16, bf16), \
                                maybe(abft_guard, guard), \
                                count_flops() as fc:
                            if grad:
                                out = _attend(base, layout, cos, sin, fused)
                                out.backward(g)
                            else:
                                with no_grad():
                                    out = _attend(base, layout, cos, sin,
                                                  fused)
                        got[fused] = (out.numpy(), base.grad, fc.total)
                    case = f"bf16={bf16} guard={guard} grad={grad}"
                    np.testing.assert_array_equal(
                        got[True][0], got[False][0], err_msg=case)
                    if grad:
                        np.testing.assert_array_equal(
                            got[True][1], got[False][1], err_msg=case)
                    assert got[True][2] == got[False][2] > 0, case

    @pytest.mark.parametrize("tokens", [16, 144])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_nonfinite_rows_match_position_for_position(self, layout,
                                                        tokens):
        head_dim, lead = 8, (2, 3)
        cos, sin = rope_tables(WINDOWS[tokens], head_dim)
        local = np.random.default_rng(tokens)
        q, k, v = np.abs(local.normal(size=(
            3, *lead, tokens, head_dim))).astype(np.float32) + 0.1
        # Score rows holding a NaN, +inf everywhere, +inf in one column,
        # and -inf everywhere (k > 0, so the sign of q decides).
        q[0, 0, 0, 1] = np.nan
        q[0, 1, 2] = np.inf
        k[1, 0, 3] = np.inf
        q[1, 2, 4] = -np.inf
        data = np.stack([q, k, v])
        if layout == "transposed":
            data = np.ascontiguousarray(data.swapaxes(-1, -2))
        elif layout == "packed":    # (3, a, H, T, hd) -> (a, T, 3, H, hd)
            data = np.ascontiguousarray(data.transpose(1, 3, 0, 2, 4))
        g = np.ones((*lead, tokens, head_dim), dtype=np.float32)
        got = {}
        with np.errstate(invalid="ignore"):
            for fused in (False, True):
                base = Tensor(data.copy(), requires_grad=True)
                # Rotary is checked on its own below: rotating an all-inf
                # row would turn the whole score matrix into NaN.
                q_, k_, v_ = _layout_views(base, layout)
                core = packed_attention if fused else dot_product_attention
                out = core(q_, k_, v_)
                out.backward(g)
                with no_grad():
                    plain = core(q_, k_, v_).numpy()
                rot = fused_apply_rotary(q_.data.copy(), cos, sin) if fused \
                    else apply_rotary(q_, cos, sin).numpy()
                got[fused] = (out.numpy(), plain, base.grad, rot)
        assert np.isnan(got[False][0]).any() \
            and np.isfinite(got[False][0]).any()
        for a, b in zip(got[True], got[False]):
            np.testing.assert_array_equal(a, b)     # NaN == NaN by position


def test_key_sum_is_numpys_row_sum():
    """The short-row softmax sums key-major in NumPy's pairwise order, so
    that order is pinned here, by name: ``_key_sum`` on ``xᵀ`` against
    ``np.add.reduce(x, axis=-1)`` at every row length from 1 to 64, over
    rows mixing ±0, subnormals, ±inf, NaN and magnitudes 1e-30 to 1e30 —
    equal values, equal bytes wherever the sum is not NaN (signed zeros)."""
    local = np.random.default_rng(27)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45,
                        1e-39, -3e-39, 3e38, -3e38], np.float32)
    rows = 256
    for keys in range(1, 65):
        x = (local.standard_normal((rows, keys))
             * 10.0 ** local.uniform(-30, 30, (rows, keys))).astype(np.float32)
        planted = local.random(x.shape) < 0.1
        x[planted] = local.choice(special, planted.sum())
        x[0], x[1] = -0.0, 0.0
        x[2] = local.choice(special[:2], keys)
        x[3] = local.choice(special[5:9], keys)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.add.reduce(x, axis=-1)
            got = _key_sum(np.ascontiguousarray(x.T),
                           np.empty((12, rows), np.float32),
                           np.empty(rows, np.float32))
        np.testing.assert_array_equal(got, want, err_msg=f"{keys} keys")
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes(), keys


class TestFusedSwiGLU:
    @pytest.mark.parametrize("bf16", [False, True])
    def test_inference_forward_bit_exact(self, bf16):
        ffn = SwiGLU(12, 24, rng=np.random.default_rng(3))
        x = Tensor(rng.normal(size=(4, 10, 12)).astype(np.float32))
        with no_grad(), maybe(autocast_bf16, bf16):
            with disable_kernels():
                ref = ffn(x).numpy()
            fused = fused_swiglu_forward(x, ffn.gate.weight.data,
                                         ffn.up.weight.data,
                                         ffn.down.weight.data)
        np.testing.assert_array_equal(fused, ref)

    def test_module_dispatches_to_fused_iff_kernels_enabled(self,
                                                            monkeypatch):
        """Taped or not, the module calls the kernel whenever the kernel
        layer is on: one graph node under grad, none under ``no_grad``."""
        import repro.nn.swiglu as swiglu_module
        calls = []
        kernel = swiglu_module.fused_swiglu_forward
        monkeypatch.setattr(
            swiglu_module, "fused_swiglu_forward",
            lambda *a: (calls.append(1), kernel(*a))[1])
        ffn = SwiGLU(8, 16, rng=np.random.default_rng(4))
        x = Tensor(rng.normal(size=(2, 8)).astype(np.float32),
                   requires_grad=True)
        out = ffn(x)
        assert calls == [1] and out._parents[0] is x    # the one node
        out.sum().backward()
        assert ffn.gate.weight.grad is not None and x.grad is not None
        with no_grad():
            free = ffn(x)
        assert calls == [1, 1] and free._backward is None
        np.testing.assert_array_equal(free.numpy(), out.numpy())
        with disable_kernels():
            ref = ffn(x)
        assert calls == [1, 1] and ref._parents[0] is not x
        np.testing.assert_array_equal(ref.numpy(), out.numpy())


def _strided(shape, seed, layout):
    """A float32 array of ``shape``: C-contiguous, or a view with a stride
    in every axis (every other element of a larger array, last two axes
    transposed in memory)."""
    local = np.random.default_rng(seed)
    if layout == "contiguous" or len(shape) < 2:
        return local.normal(size=shape).astype(np.float32)
    big = tuple(2 * n for n in shape[:-2]) + (2 * shape[-1], 2 * shape[-2])
    base = local.normal(size=big).astype(np.float32)
    view = base.swapaxes(-1, -2)[tuple(slice(None, None, 2) for _ in shape)]
    assert view.shape == tuple(shape) and not view.flags.c_contiguous
    return view


def _poison(x):
    """NaN, +inf and -inf planted in three different rows (last axis) of a
    copy of ``x``, the rest left finite."""
    x = x.copy()
    rows = x.reshape(-1, x.shape[-1])
    if len(rows) >= 4:
        rows[0, 0], rows[1, -1], rows[2, 1] = np.nan, np.inf, -np.inf
    return x.reshape(x.shape)


def _fast_and_reference(fn):
    """``(result, forward FLOPs)`` of ``fn()`` on the tape-free path and on
    the reference path."""
    with no_grad(), np.errstate(invalid="ignore", over="ignore"):
        with count_flops() as fast_flops:
            fast = fn()
        with disable_kernels(), count_flops() as ref_flops:
            ref = fn()
    return (fast, fast_flops.forward), (ref, ref_flops.forward)


def _taped_and_reference(call, arrays, params=()):
    """``call(*tensors)`` and a seeded-upstream backward on the taped kernel
    path and on the ``disable_kernels()`` chain, ABFT armed: for each,
    ``(outputs, input gradients, parameter gradients, forward FLOPs,
    backward FLOPs, guard labels)``."""
    import repro.kernels.fused as fused_module
    results = []
    for reference in (False, True):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        for p in params:
            p.zero_grad()
        labels = []
        guard = fused_module.guard_gemm
        fused_module.guard_gemm = \
            lambda a, b, c, label: (labels.append(label), c)[1]
        try:
            with abft_guard(), count_flops() as flops, \
                    np.errstate(invalid="ignore", over="ignore"):
                if reference:
                    with disable_kernels():
                        out = call(*inputs)
                else:
                    out = call(*inputs)
                outs = out if isinstance(out, tuple) else (out,)
                total = 0.0
                for i, o in enumerate(outs):
                    upstream = np.random.default_rng(100 + i).normal(
                        size=o.shape).astype(np.float32)
                    total = (o * Tensor(upstream)).sum() + total
                total.backward()
        finally:
            fused_module.guard_gemm = guard
        results.append(([o.numpy() for o in outs],
                        [t.grad for t in inputs], [p.grad for p in params],
                        flops.forward, flops.backward, labels))
    return results


TOKEN_AXES = [(), (1,), (2, 3)]
TOKEN_IDS = ["lead0", "lead1", "lead2x3"]


@pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("tokens", TOKEN_AXES, ids=TOKEN_IDS)
class TestTapeFreeKernels:
    """Each tape-free kernel, through the module that calls it, against
    that module's Tensor chain: token axes ``()``, ``(1,)``, ``(2, 3)``,
    contiguous and strided activations, finite and NaN/±inf rows (compared
    position for position), BF16 on and off, FLOPs equal."""

    BATCH, DIM = 3, 8

    def _x(self, tokens, layout, seed=0):
        x = _strided((self.BATCH, *tokens, self.DIM), seed, layout)
        return x, _poison(x)

    def _check(self, fn, bf16):
        with maybe(autocast_bf16, bf16):
            (fast, fast_flops), (ref, ref_flops) = _fast_and_reference(fn)
        if isinstance(fast, Tensor):
            fast, ref = (fast,), (ref,)
        for a, b in zip(fast, ref, strict=True):
            np.testing.assert_array_equal(a.numpy(), b.numpy())
        assert fast_flops == ref_flops

    def _check_taped(self, call, arrays, bf16, params=(), guards=()):
        """The ``grad=True`` axis: the kernel's one graph node against the
        chain — outputs, every input and parameter gradient (NaN/inf
        position for position), forward and backward FLOPs, and the guard
        calls a taped step may make (``guards``; the chain makes none)."""
        with maybe(autocast_bf16, bf16):
            taped, ref = _taped_and_reference(call, arrays, params)
        for got, want in zip(taped[:3], ref[:3]):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a is not None and b is not None
                np.testing.assert_array_equal(a, b)
        assert taped[3:5] == ref[3:5]
        assert taped[5] == list(guards) and ref[5] == []

    def test_norm_modulate(self, tokens, layout, bf16):
        norm = RMSNorm(self.DIM)
        norm.weight.data = _strided((self.DIM,), 1, "contiguous")
        mod = _strided((2, self.BATCH, self.DIM), 2, "contiguous")
        for x in self._x(tokens, layout):
            for alpha, beta in ((None, None), (Tensor(mod[0]), Tensor(mod[1])),
                                (Tensor(_poison(mod[0])), Tensor(mod[1]))):
                self._check(lambda: norm(Tensor(x), alpha, beta), bf16)
            self._check_taped(norm, [x], bf16, [norm.weight])
            for alpha in (mod[0], _poison(mod[0])):
                self._check_taped(norm, [x, alpha, mod[1]], bf16,
                                  [norm.weight])

    def test_layer_norm(self, tokens, layout, bf16):
        plain = LayerNorm(self.DIM, elementwise_affine=False)
        affine = LayerNorm(self.DIM)
        affine.weight.data = _strided((self.DIM,), 3, "contiguous")
        affine.bias.data = _strided((self.DIM,), 4, "contiguous")
        for x in self._x(tokens, layout):
            for norm in (plain, affine):
                self._check(lambda: norm(Tensor(x)), bf16)

    def test_linear(self, tokens, layout, bf16):
        local = np.random.default_rng(5)
        biased = Linear(self.DIM, 6, rng=local)
        biased.bias.data = _strided((6,), 6, "contiguous")
        bare = Linear(self.DIM, 6, bias=False, rng=local)
        for x in self._x(tokens, layout):
            for linear in (biased, bare):
                self._check(lambda: linear(Tensor(x)), bf16)
                self._check_taped(linear, [x], bf16,
                                  list(linear.parameters()))

    def test_swiglu(self, tokens, layout, bf16):
        ffn = SwiGLU(self.DIM, 12, rng=np.random.default_rng(7))
        for x in self._x(tokens, layout):
            self._check(lambda: ffn(Tensor(x)), bf16)
            self._check_taped(ffn, [x], bf16, list(ffn.parameters()))

    def test_adaln_and_time_embedding(self, tokens, layout, bf16):
        ada = unblind(AdaLNModulation(self.DIM, 4,
                                      rng=np.random.default_rng(8)))
        embed = TimestepEmbedding(self.DIM, n_freqs=4,
                                  rng=np.random.default_rng(9))
        t_emb = _strided((self.BATCH, self.DIM), 10, layout)
        for t in (t_emb, _poison(np.tile(t_emb, (2, 1)))):
            self._check(lambda: ada(Tensor(t)), bf16)
            self._check_taped(ada, [t], bf16, list(ada.parameters()))
        times = _strided((self.BATCH, 2), 11, layout)[:, 0]
        self._check(lambda: embed(Tensor(times)), bf16)

    def test_gate_residual(self, tokens, layout, bf16):
        gamma = _strided((self.BATCH, self.DIM), 12, "contiguous")
        for x in self._x(tokens, layout):
            for g in (gamma, _poison(np.tile(gamma, (2, 1)))[:self.BATCH]):
                branch = _strided(x.shape, 13, layout)
                shape = (self.BATCH, *(1 for _ in tokens), self.DIM)
                with np.errstate(invalid="ignore"):
                    ref = x + branch * g.reshape(shape)
                    kept = x.copy()
                    out = fused_gate_residual(x, branch, g)
                assert out is branch            # built in the branch's memory
                np.testing.assert_array_equal(out, ref)
                np.testing.assert_array_equal(x, kept)
                self._check_taped(_gated_residual,
                                  [x, _strided(x.shape, 13, layout), g], bf16)

    def test_shared_input_fan_in(self, tokens, layout, bf16):
        """The block input feeds the norm (as ``x·inv`` and ``x·x`` twice)
        *and* the residual add: four contributions to one gradient, whose
        order of addition the fused nodes must keep."""
        norm, linear = RMSNorm(self.DIM), Linear(
            self.DIM, self.DIM, rng=np.random.default_rng(16))
        norm.weight.data = _strided((self.DIM,), 1, "contiguous")
        mod = _strided((3, self.BATCH, self.DIM), 17, "contiguous")

        def half_block(x, alpha, beta, gamma):
            return _gated_residual(x, linear(norm(x, alpha, beta)), gamma)

        for x in self._x(tokens, layout):
            self._check_taped(half_block, [x, *mod], bf16,
                              [norm.weight, *linear.parameters()])

    def test_attention(self, tokens, layout, bf16):
        """``MultiHeadAttention`` end to end: the raw view chain, in-place
        rotary and raw attention core against the taped kernels' path and
        against the reference primitives."""
        attn = MultiHeadAttention(self.DIM, 2, rng=np.random.default_rng(14))
        rope = rope_tables((2, 3), self.DIM // 2)
        x = _strided((self.BATCH, *tokens, 6, self.DIM), 15, layout)
        for rope_args in ((), rope):
            self._check(lambda: attn(Tensor(x), *rope_args), bf16)
            with maybe(autocast_bf16, bf16):
                taped = attn(Tensor(x), *rope_args)
                with no_grad():
                    raw = attn(Tensor(x), *rope_args)
            np.testing.assert_array_equal(raw.numpy(), taped.numpy())
            self._check_taped(
                lambda t: attn(t, *rope_args), [x], bf16,
                list(attn.parameters()),
                guards=["attention.scores", "attention.out"])


class TestRawKernelForms:
    """The rotary and attention kernels handed raw arrays: the rotation
    done in the array it was given, as ``apply_rotary`` computes it, and
    the core's numbers those of its Tensor form."""

    def test_rotary_rotates_a_raw_array_in_place(self):
        cos, sin = rope_tables((4, 4), 8)
        packed = rng.normal(size=(2, 5, 16, 3, 4, 8)).astype(np.float32)
        expect = apply_rotary(
            Tensor(packed[..., :2, :, :]), cos[:, None, None, :],
            sin[:, None, None, :]).numpy()
        v = packed[..., 2, :, :].copy()
        qk = packed[..., :2, :, :]
        out = fused_apply_rotary(qk, cos[:, None, None, :],
                                 sin[:, None, None, :])
        assert out is qk
        np.testing.assert_array_equal(qk, expect)
        np.testing.assert_array_equal(packed[..., 2, :, :], v)

    def test_rotary_in_place_on_an_array_with_no_flat_batch_view(self):
        cos, sin = rope_tables((4, 4), 8)
        base = rng.normal(size=(4, 6, 16, 8)).astype(np.float32)
        x = base[::2, ::2]          # batch axes that reshape only by copy
        expect = apply_rotary(Tensor(x.copy()), cos, sin).numpy()
        untouched = base[1::2].copy()
        assert fused_apply_rotary(x, cos, sin) is x
        np.testing.assert_array_equal(x, expect)
        np.testing.assert_array_equal(base[1::2], untouched)

    @pytest.mark.parametrize("bf16", [False, True])
    def test_attention_core_on_raw_arrays(self, bf16):
        q, k, v = _qkv()
        with no_grad(), maybe(autocast_bf16, bf16), abft_guard():
            expect = packed_attention(q, k, v).numpy()
            out = packed_attention(q.data, k.data, v.data)
        assert type(out) is np.ndarray
        np.testing.assert_array_equal(out, expect)


class TestModuleDispatch:
    """A module called directly runs its kernels iff the kernel layer is on
    — taped or not: under grad a handful of graph nodes in place of the
    chain's, under ``no_grad`` none."""

    @staticmethod
    def _case(name):
        """``(module, call(x, t_emb) -> Tensor)`` for the named module."""
        local = np.random.default_rng(21)
        if name == "RMSNorm":
            module = RMSNorm(16)
            return module, lambda x, t: module(x, t, t)
        if name == "Linear":
            module = Linear(16, 8, rng=local)
            return module, lambda x, t: module(x)
        if name == "AdaLNModulation":
            module = unblind(AdaLNModulation(16, 16, rng=local))
            return module, lambda x, t: sum(module(t))
        config = AerisConfig(
            name="dispatch", height=8, width=8, channels=3,
            forcing_channels=1, dim=16, heads=2, ffn_dim=32, swin_layers=1,
            blocks_per_layer=2, window=(4, 4), time_freqs=4)
        module = unblind(SwinBlock(config, shifted=True, rng=local))
        return module, lambda x, t: module(x, t)

    @pytest.mark.parametrize("name", ["RMSNorm", "Linear", "AdaLNModulation",
                                      "SwinBlock"])
    def test_kernels_iff_enabled_fewer_nodes_under_grad(self, name,
                                                        monkeypatch):
        import repro.kernels.fused as fused_module
        module, call = self._case(name)
        local = np.random.default_rng(22)
        x = local.normal(size=(2, 8, 8, 16)).astype(np.float32)
        t_emb = local.normal(size=(2, 16)).astype(np.float32)
        gemms, nodes = [], []
        gemm, make = fused_module._gemm, Tensor._make
        monkeypatch.setattr(
            fused_module, "_gemm",
            lambda *a, **k: (gemms.append(1), gemm(*a, **k))[1])

        def counting_make(data, parents, backward):
            out = make(data, parents, backward)
            if out._backward is not None:
                nodes.append(1)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))

        def run(taped=True, kernels=True):
            gemms.clear()
            nodes.clear()
            module.zero_grad()
            args = (Tensor(x), Tensor(t_emb))
            if not kernels:
                with disable_kernels():
                    out = call(*args)
            elif taped:
                out = call(*args)
            else:
                with no_grad():
                    out = call(*args)
            return out, len(gemms), len(nodes)

        taped, taped_gemms, taped_nodes = run()
        free, free_gemms, free_nodes = run(taped=False)
        ref, ref_gemms, ref_nodes = run(kernels=False)
        np.testing.assert_array_equal(free.numpy(), taped.numpy())
        np.testing.assert_array_equal(ref.numpy(), taped.numpy())
        # The kernel layer's GEMM helper runs whenever kernels are on, never
        # on the reference chain (RMSNorm has no GEMM; a taped SwiGLU is
        # three more kernel GEMMs per block, as tape-free).
        assert ref_gemms == 0 and taped_gemms == free_gemms
        assert (taped_gemms > 0) == (name != "RMSNorm")
        assert free_nodes == 0 < taped_nodes < ref_nodes
        # Every parameter gradient is the reference chain's.
        taped.sum().backward()
        grads = [p.grad.copy() for p in module.parameters()]
        assert all(g is not None for g in grads)
        run(kernels=False)[0].sum().backward()
        for got, want in zip(grads, (p.grad for p in module.parameters())):
            np.testing.assert_array_equal(got, want)


class TestWindowPlans:
    @pytest.mark.parametrize("shift", [(0, 0), (2, 2), (1, 3)])
    def test_partition_merge_bit_exact(self, shift):
        grid, window = (8, 12), (4, 4)
        x_ref = Tensor(rng.normal(size=(2, *grid, 5)).astype(np.float32),
                       requires_grad=True)
        x_plan = Tensor(x_ref.data.copy(), requires_grad=True)

        plan = window_plan(grid, window, shift)
        planned = plan_merge(plan_partition(x_plan, plan), plan)

        work = cyclic_shift(x_ref, shift) if shift != (0, 0) else x_ref
        merged = window_merge(window_partition(work, window), grid, window)
        ref = cyclic_shift(merged, shift, reverse=True) \
            if shift != (0, 0) else merged

        np.testing.assert_array_equal(planned.numpy(), ref.numpy())
        g = rng.normal(size=planned.shape).astype(np.float32)
        planned.backward(g)
        ref.backward(g)
        np.testing.assert_array_equal(x_plan.grad, x_ref.grad)

    def test_partition_matches_reference_layout(self):
        grid, window = (8, 8), (4, 4)
        x = Tensor(rng.normal(size=(1, *grid, 3)).astype(np.float32))
        plan = window_plan(grid, window)
        np.testing.assert_array_equal(
            plan_partition(x, plan).numpy(),
            window_partition(x, window).numpy())

    def test_rejects_wrong_grid(self):
        plan = window_plan((8, 8), (4, 4))
        x = Tensor(np.zeros((1, 4, 8, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            plan_partition(x, plan)
        with pytest.raises(ValueError):
            plan_merge(Tensor(np.zeros((1, 2, 16, 2), dtype=np.float32)), plan)


class TestModelGolden:
    def test_aeris_forward_bit_exact_vs_reference_paths(self):
        config = AerisConfig(
            name="golden", height=8, width=16, channels=4, forcing_channels=2,
            dim=16, heads=2, ffn_dim=32, swin_layers=1, blocks_per_layer=2,
            window=(4, 4), time_freqs=4)
        model = unblind(Aeris(config, seed=0))
        x = rng.normal(size=(2, 8, 16, 4)).astype(np.float32)
        c = rng.normal(size=(2, 8, 16, 4)).astype(np.float32)
        f = rng.normal(size=(2, 8, 16, 2)).astype(np.float32)
        t = Tensor(np.array([0.3, 1.1], dtype=np.float32))
        assert kernels_enabled()
        fast = model(Tensor(x), t, Tensor(c), Tensor(f)).numpy()
        with disable_kernels():
            ref = model(Tensor(x), t, Tensor(c), Tensor(f)).numpy()
        np.testing.assert_array_equal(fast, ref)

    def test_aeris_gradients_bit_exact_vs_reference_paths(self):
        config = AerisConfig(
            name="golden-bwd", height=8, width=8, channels=3,
            forcing_channels=1, dim=16, heads=2, ffn_dim=32, swin_layers=1,
            blocks_per_layer=2, window=(4, 4), time_freqs=4)
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        c = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        f = rng.normal(size=(1, 8, 8, 1)).astype(np.float32)
        t = np.array([0.7], dtype=np.float32)

        def grads(use_kernels):
            model = unblind(Aeris(config, seed=1))
            args = (Tensor(x), Tensor(t), Tensor(c), Tensor(f))
            if use_kernels:
                out = model(*args)
            else:
                with disable_kernels():
                    out = model(*args)
            out.sum().backward()
            return [p.grad.copy() for p in model.parameters()]

        # Bit-exactness of the whole graph: identical parameter gradients.
        for a, b in zip(grads(True), grads(False)):
            np.testing.assert_array_equal(a, b)

    def test_golden_fixture_sees_the_blocks(self):
        """The guard on the fixture itself: a fresh adaLN-Zero model is
        blind to a perturbed block weight, the unblinded one is not."""
        args = model_inputs(QUICKSTART, 1)

        def outputs(model):
            with no_grad():
                before = model(*args).numpy()
                for layer in model.layers:
                    for block in layer.blocks:
                        block.attn.qkv.weight.data = \
                            block.attn.qkv.weight.data + 0.5
                        block.ffn.down.weight.data = \
                            block.ffn.down.weight.data * 3.0
                return before, model(*args).numpy()

        before, after = outputs(Aeris(QUICKSTART, seed=0))
        np.testing.assert_array_equal(before, after)
        before, after = outputs(unblind(Aeris(QUICKSTART, seed=0)))
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
    @pytest.mark.parametrize("rows", [1, 2, 4, 16])
    def test_quickstart_forward_bit_exact(self, rows, bf16, monkeypatch):
        """The tape-free forward against the reference paths: outputs, FLOP
        totals, and — with ABFT armed — the guarded-GEMM sequence."""
        model = unblind(Aeris(QUICKSTART, seed=0))
        args = model_inputs(QUICKSTART, rows)
        labels = []
        verify = abft._verify_gemm
        monkeypatch.setattr(
            abft, "_verify_gemm",
            lambda a, b, c, label: (labels.append(label),
                                    verify(a, b, c, label)))

        class CountingInjector:
            consulted = 0

            def compute_fault(self, site):
                self.consulted += 1
                return False

        injector = CountingInjector()
        with no_grad(), maybe(autocast_bf16, bf16):
            with count_flops() as fast_flops:
                fast = model(*args).numpy()
            with disable_kernels(), count_flops() as ref_flops:
                ref = model(*args).numpy()
            with abft_guard(), inject_compute(injector):
                guarded = model(*args).numpy()
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(guarded, ref)
        assert fast_flops.forward == ref_flops.forward > 0
        assert labels == BLOCK_GUARD_LABELS * QUICKSTART.n_blocks
        assert injector.consulted == len(labels)

    def test_train_step_bit_exact_vs_reference_paths(self, tiny_archive):
        def step(use_kernels):
            trainer = Trainer(
                unblind(Aeris(QUICKSTART, seed=0)), tiny_archive,
                TrainerConfig(batch_size=2, seed=0))
            if use_kernels:
                loss = trainer.train_step()
            else:
                with disable_kernels():
                    loss = trainer.train_step()
            return loss, [p.data.copy() for p in trainer.model.parameters()]

        (loss_a, params_a), (loss_b, params_b) = step(True), step(False)
        assert loss_a == loss_b
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a, b)
