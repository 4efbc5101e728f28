"""Fused hot-path kernels: rotary embedding, softmax(QKᵀ)·V, and the
tape-free forms of every other chain of an inference forward.

The reference implementations in :mod:`repro.nn` build one autograd node per
primitive — for the attention core that is six graph nodes and as many fresh
full-size temporaries per call.  The kernels here compute the same
mathematics as a single node each, with in-place NumPy updates on
arena-pooled scratch where the value cannot escape.

The rotary and attention kernels serve both the taped and the tape-free
forward: handed ``Tensor``s they return a graph node, handed raw arrays (what
a module does when no tape is being recorded) they return a raw array.
Everything below them — norm-modulate, gate-residual, linear, SwiGLU, … —
is inference-only, raw arrays in and out, called by the owning module's
``forward`` under ``kernels_enabled() and not is_grad_enabled()``.

Memory rule of the tape-free kernels.  An array handed in is never written:
the residual stream, a parameter or a cached state may be held by the
caller.  In-place updates touch only what the kernel — or, for
:func:`fused_gate_residual`'s ``branch`` and the packed projection a raw
:func:`fused_apply_rotary` rotates, the calling module — just produced.
No result is arena scratch: the sampler keeps model outputs across calls.

Bit-exactness is a hard contract, enforced by golden tests: BF16 emulation
rounds exactly the matmul operands the reference rounds (including in
backward, which reuses the *rounded* forward operands, as
``Tensor.__matmul__`` does), FLOP accounting mirrors the reference node for
node, and float32 accumulation semantics are unchanged.

Layout rule.  The kernels are free to re-lay data out, and do, because on
Swin windows the inner axes are 4–16 long and NumPy pays a fixed cost per
inner loop (≈120 ns per row of a float ``maximum.reduce``, more for a
stride-2 pair access under a broadcast table).  A re-layout is allowed iff
every scalar operation keeps its operands and every sum and every GEMM
K-reduction keeps its order:

* the rotation runs full-width, ``x·C + swap(x)·S``, on the packed
  ``(..., tokens, heads, head_dim)`` order the QKV projection is born in
  (``x1·(−s) ≡ −(x1·s)`` and ``a + (−b) ≡ a − b`` exactly; the rest is
  commutation);
* ``max`` is exact in any order, so short rows are reduced through a
  cache-blocked transposed copy;
* GEMM operands may be copied contiguous and the output written in another
  order — the K order of every dot product is untouched;
* ``sum`` over the softmax axis is pairwise, hence order-sensitive: it keeps
  its layout and algorithm.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, is_grad_enabled
from ..tensor.bf16 import bf16_matmul_enabled, round_bf16
from ..tensor.flops import add_flops, flops_enabled
from ..tensor.tensor import _FLOAT32, _unbroadcast
from ..tensor.workspace import arena
from .abft import guard_gemm
from .rope_cache import rotation_tables

__all__ = ["fused_apply_rotary", "fused_dot_product_attention",
           "fused_swiglu_forward", "fused_linear", "fused_silu",
           "fused_norm_modulate", "fused_layer_norm", "fused_gate_residual",
           "fused_time_features", "fused_concat_add"]

#: Softmax rows shorter than this take the transposed max.  Measured on the
#: CI sandbox (DESIGN §10): 8x faster than ``max(axis=-1)`` at 16 tokens,
#: 2.8x at 48, level at 64–96, 2.5x slower from 192 on.
_TRANSPOSED_MAX_BELOW = 64

#: Elements of the one flat scratch block the kernels work through —
#: 256 KB of float32, L2-resident, so pooled scratch does not grow with
#: the batch.
_BLOCK = 1 << 16


def _scratch(elems: int, dtype) -> np.ndarray:
    """A flat arena buffer of at least ``elems`` (and ``_BLOCK``) elements.
    The caller hands it back with ``arena().release`` in a ``finally``."""
    return arena().get((max(_BLOCK, elems),), dtype)


def _gemm_dtype(a: np.ndarray, b: np.ndarray):
    """The dtype :func:`_gemm` computes ``a @ b`` in."""
    if bf16_matmul_enabled():
        return _FLOAT32             # what round_bf16 hands back
    return a.dtype if a.dtype is b.dtype else np.result_type(a, b)


def _gemm(a: np.ndarray, b: np.ndarray, label: str | None = None,
          out: np.ndarray | None = None, transpose_b: bool = False) -> tuple:
    """``a @ b`` — or, into a given ``out``, ``a @ bᵀ`` if ``transpose_b`` —
    with everything a kernel GEMM owes the reference node it replaces:
    operands rounded to BF16 under autocast, the fault hook and ABFT check
    under ``label`` (``None``: unguarded, as a plain ``Tensor.__matmul__``
    is), and that node's FLOPs.

    Returns ``(product, a, b)`` with the operands as multiplied — what a
    backward has to reuse.
    """
    if bf16_matmul_enabled():
        a, b = round_bf16(a), round_bf16(b)
    if transpose_b:
        right = np.swapaxes(b, -1, -2)
        out = _matmul_transposed(a, right, out)
    else:
        right = b
        out = np.matmul(a, b, out=out)
    if label is not None:
        guard_gemm(a, right, out, label)
    if flops_enabled():
        # 2*m*k*n per output batch element (multiply + add).
        add_flops(2 * out.size * a.shape[-1])
    return out, a, b


def rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                 inverse: bool = False,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Rotate the feature pairs of a raw array: ``(x0, x1) -> (x0·c − x1·s,
    x0·s + x1·c)``, or the transposed rotation (the backward) if ``inverse``.

    ``cos``/``sin`` broadcast against ``x.shape[:-1] + (head_dim // 2,)``.
    Computed as ``x·C + swap(x)·S`` on full-width tables, so every ufunc
    runs over the whole contiguous tail of ``x``.  Returns a fresh array,
    or ``out`` — which may be ``x`` itself: each block's ``swap(x)`` is
    copied out before the block is overwritten.
    """
    c, s = rotation_tables(cos, sin, x.shape, inverse)
    dtype = x.dtype if x.dtype is c.dtype else np.result_type(x, c)
    # Batch axes flattened (a view of a packed or contiguous x), then
    # walked a scratch block at a time.
    windows = x.reshape((-1,) + c.shape)
    if out is None:
        out = np.empty(x.shape, dtype)
    elif not np.may_share_memory(out.reshape(windows.shape), out):
        # A caller's strided ``out`` whose batch axes do not flatten to a
        # view: writes to the reshaped array would land in a copy.
        np.copyto(out, rotate_pairs(x, cos, sin, inverse))
        return out
    rotated = out.reshape(windows.shape)
    pairs = (-1,) + c.shape[:-1] + (c.shape[-1] // 2, 2)
    # In place, ``x·C`` goes to a second half of the block, so the strided
    # ``x`` is read once and written once rather than updated twice.
    halves = 2 if out is x else 1
    step = max(1, _BLOCK // max(1, halves * c.size))
    scratch = _scratch(halves * c.size, dtype)
    try:
        for start in range(0, len(windows), step):
            part = windows[start:start + step]
            swapped = scratch[:part.size].reshape(part.shape)
            product = rotated[start:start + step] if halves == 1 \
                else scratch[part.size:2 * part.size].reshape(part.shape)
            src, dst = part.reshape(pairs), swapped.reshape(pairs)
            dst[..., 0] = src[..., 1]
            dst[..., 1] = src[..., 0]
            np.multiply(part, c, out=product)
            swapped *= s
            np.add(product, swapped, out=rotated[start:start + step])
    finally:
        arena().release(scratch)
    return out


def fused_apply_rotary(x, cos: np.ndarray, sin: np.ndarray):
    """Rotate feature pairs of ``x`` by per-token angles, as one graph node.

    Same contract as :func:`repro.nn.attention.apply_rotary`:
    ``x`` is ``(..., tokens, head_dim)``, ``cos``/``sin`` are
    ``(tokens, head_dim // 2)`` — or anything that broadcasts the same way,
    e.g. ``(tokens, 1, head_dim // 2)`` against a packed
    ``(..., tokens, heads, head_dim)``.

    A raw array in is the tape-free call: it is a projection the calling
    module just produced and owns, so it is rotated in place and returned.
    """
    if type(x) is np.ndarray:
        return rotate_pairs(x, cos, sin, out=x)

    def backward(g):
        return (rotate_pairs(g, cos, sin, inverse=True),)

    return Tensor._make(rotate_pairs(x.data, cos, sin), (x,), backward)


def _row_max(scores: np.ndarray) -> np.ndarray:
    """``scores.max(axis=-1, keepdims=True)``; short rows go through a
    blocked transposed copy so the reduction vectorizes across rows."""
    tokens = scores.shape[-1]
    if tokens >= _TRANSPOSED_MAX_BELOW:
        return scores.max(axis=-1, keepdims=True)
    flat = scores.reshape(-1, tokens)
    out = np.empty(len(flat), dtype=scores.dtype)
    step = _BLOCK // tokens
    scratch = _scratch(_BLOCK, scores.dtype)
    try:
        for start in range(0, len(flat), step):
            part = flat[start:start + step]
            columns = scratch[:part.size].reshape(tokens, len(part))
            np.copyto(columns, part.T)
            np.maximum.reduce(columns, axis=0, out=out[start:start + step])
    finally:
        arena().release(scratch)
    return out.reshape(scores.shape[:-1] + (1,))


def _matmul_transposed(a: np.ndarray, bT: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """``out[...] = a @ bT`` for a ``bT`` that is a transposed (strided)
    view: copied contiguous a scratch block at a time, so the small GEMMs
    take BLAS's plain NN path and the copy never leaves L2."""
    full = out
    if a.ndim < 3 or a.shape[:-2] != bT.shape[:-2]:
        a, bT, out = a[None], bT[None], out[None]   # broadcasting: one slab
    slab = bT[0].size
    step = max(1, _BLOCK // max(1, slab))
    scratch = _scratch(slab, bT.dtype)
    try:
        for start in range(0, len(bT), step):
            part = bT[start:start + step]
            block = scratch[:part.size].reshape(part.shape)
            np.copyto(block, part)
            np.matmul(a[start:start + step], block,
                      out=out[start:start + step])
    finally:
        arena().release(scratch)
    return full


def fused_dot_product_attention(q, k, v):
    """Softmax attention ``softmax(q·kᵀ/√d)·v`` as one graph node (raw
    arrays in are the tape-free call: a raw array out).

    Same contract as :func:`repro.nn.attention.dot_product_attention`:
    shapes ``(..., tokens, head_dim)`` in and out, float32 accumulation via
    the same NumPy matmuls, max-subtracted softmax.  Operands may be any
    strided views (the packed QKV projection hands over three); the result
    is written token-major — ``(..., tokens, heads, head_dim)`` in memory —
    so the caller's head merge is a view.
    """
    raw = type(q) is np.ndarray
    qa, ka, va = (q, k, v) if raw else (q.data, k.data, v.data)
    tokens, head_dim = ka.shape[-2:]
    # Matches the reference's `1.0 / np.sqrt(hd)` python-float -> fp32 coerce.
    scale = np.float32(1.0 / np.sqrt(qa.shape[-1]))

    grad_needed = not raw and is_grad_enabled() and (
        q.requires_grad or k.requires_grad or v.requires_grad)
    scores_lead = out_lead = qa.shape[:-2]
    if not scores_lead == ka.shape[:-2] == va.shape[:-2]:
        scores_lead = np.broadcast_shapes(scores_lead, ka.shape[:-2])
        out_lead = np.broadcast_shapes(scores_lead, va.shape[:-2])
    scores_shape = scores_lead + (qa.shape[-2], tokens)
    dtype = _gemm_dtype(qa, ka)
    ws = arena()
    # probs is captured by the backward closure, so it is pooled only when
    # there is none.
    scores = np.empty(scores_shape, dtype) if grad_needed \
        else ws.get(scores_shape, dtype)
    try:
        _, qa_, ka_ = _gemm(qa, ka, "attention.scores", scores,
                            transpose_b=True)
        scores *= scale
        scores -= _row_max(scores)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        probs = scores
        out, probs_, va_ = _gemm(
            probs, va, "attention.out", _empty_token_major(
                out_lead + (qa.shape[-2], va.shape[-1]),
                _gemm_dtype(probs, va)))
    finally:
        if not grad_needed:
            ws.release(scores)
    if raw:
        return out
    if not grad_needed:
        return Tensor._make(out, (q, k, v), lambda g: (None, None, None))

    bf16 = bf16_matmul_enabled()
    q_shape, v_shape = qa.shape, va.shape
    kT_shape = ka.shape[:-2] + (head_dim, tokens)

    def backward(g):
        g_ = round_bf16(g) if bf16 else g
        # out = probs_ @ va_  (backward reuses the rounded forward operands,
        # exactly as Tensor.__matmul__ captures them).
        if flops_enabled():
            add_flops(4 * g.size * tokens)
        g_scores = _unbroadcast(g_ @ np.swapaxes(va_, -1, -2), probs.shape)
        g_v = _unbroadcast(np.swapaxes(probs_, -1, -2) @ g_, v_shape)
        # softmax backward (on the unrounded probabilities), in place on the
        # freshly computed d(probs): (g - sum(g*p)) * p * scale.
        g_scores -= (g_scores * probs).sum(axis=-1, keepdims=True)
        g_scores *= probs
        g_scores *= scale
        g_scores_ = round_bf16(g_scores) if bf16 else g_scores
        # scores = qa_ @ kT  backward.
        if flops_enabled():
            add_flops(4 * g_scores.size * head_dim)
        g_q = _unbroadcast(g_scores_ @ ka_, q_shape)
        g_kT = _unbroadcast(np.swapaxes(qa_, -1, -2) @ g_scores_, kT_shape)
        return (g_q, np.swapaxes(g_kT, -1, -2), g_v)

    return Tensor._make(out, (q, k, v), backward)


def _empty_token_major(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized ``(..., heads, tokens, head_dim)`` array whose memory
    order is ``(..., tokens, heads, head_dim)``."""
    if len(shape) < 3:
        return np.empty(shape, dtype=dtype)
    memory = shape[:-3] + (shape[-2], shape[-3], shape[-1])
    return np.swapaxes(np.empty(memory, dtype=dtype), -2, -3)


# -- tape-free kernels: raw arrays in, a raw array that owns its memory out --

def _silu_into(out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``out[...] = h · 1/(1 + exp(−h))`` — the ufunc chain of
    ``Tensor.silu`` — for an ``out`` that does not alias ``h``."""
    np.negative(h, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    out *= h
    return out


def fused_silu(x: np.ndarray) -> np.ndarray:
    """``Tensor.silu`` of a raw array, into one fresh array."""
    return _silu_into(np.empty_like(x), x)


def fused_linear(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight + bias``, the bias added in place on the product."""
    out = _gemm(x, weight)[0]
    if bias is not None:
        out += bias
    return out


def fused_swiglu_forward(x: Tensor, w_gate: np.ndarray, w_up: np.ndarray,
                         w_down: np.ndarray) -> np.ndarray:
    """Inference-only SwiGLU ``(silu(x·Wg) * (x·Wu)) · Wd`` on raw arrays.

    The hidden-width intermediates live in two arena buffers (the sigmoid's
    is reused for the up projection); only the (narrow) output is freshly
    allocated.  Caller guarantees no-grad.
    """
    xa = x.data
    ws = arena()
    hidden_shape = xa.shape[:-1] + (w_gate.shape[-1],)
    dtype = _gemm_dtype(xa, w_gate)
    gate = ws.get(hidden_shape, dtype)
    other = ws.get(hidden_shape, dtype)
    try:
        _gemm(xa, w_gate, "swiglu.gate", gate)
        hidden = _silu_into(other, gate)
        _gemm(xa, w_up, "swiglu.up", gate)
        hidden *= gate
        return _gemm(hidden, w_down, "swiglu.down")[0]
    finally:
        ws.release(other)
        ws.release(gate)


def _over_tokens(per_sample: np.ndarray, ndim: int) -> np.ndarray:
    """A ``(batch, dim)`` adaLN value shaped to broadcast over the token
    axes of an ``ndim``-dimensional activation."""
    return per_sample.reshape(per_sample.shape[:1]
                              + (1,) * (ndim - per_sample.ndim)
                              + per_sample.shape[-1:])


def _rsqrt_of_mean(sums: np.ndarray, count: int, eps: float) -> np.ndarray:
    """``(sums / count + eps) ** -0.5`` in place on the (fresh) row sums,
    rounded as ``Tensor.mean`` and the norms' scalar coercions round:
    ``· float32(1/count)``, ``+ float32(eps)``, ``** -0.5``."""
    sums *= np.float32(1.0 / count)
    sums += np.float32(eps)
    sums **= -0.5
    return sums


def fused_norm_modulate(x: np.ndarray, weight: np.ndarray, eps: float,
                        alpha: np.ndarray | None = None,
                        beta: np.ndarray | None = None) -> np.ndarray:
    """RMSNorm and, given ``(alpha, beta)``, the adaLN scale/shift:
    ``x · (mean(x²) + eps)^-½ · weight · (alpha + 1) + beta``.

    One fresh array serves as ``x²`` and then as the output every later
    step updates in place — the operations, operands and order of
    ``RMSNorm.forward`` followed by ``modulate``.
    """
    out = np.multiply(x, x)
    inv = _rsqrt_of_mean(out.sum(axis=-1, keepdims=True), x.shape[-1], eps)
    np.multiply(x, inv, out=out)
    out *= weight
    if alpha is not None:
        out *= _over_tokens(alpha, x.ndim) + 1.0
        out += _over_tokens(beta, x.ndim)
    return out


def fused_layer_norm(x: np.ndarray, eps: float,
                     weight: np.ndarray | None = None,
                     bias: np.ndarray | None = None) -> np.ndarray:
    """``LayerNorm.forward`` on a raw array: the centered copy is the one
    full-size array kept, and becomes the output."""
    dim = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True)
    mu *= np.float32(1.0 / dim)
    out = np.subtract(x, mu)
    out *= _rsqrt_of_mean(
        np.multiply(out, out).sum(axis=-1, keepdims=True), dim, eps)
    if weight is not None:
        out *= weight
        out += bias
    return out


def fused_gate_residual(x: np.ndarray, branch: np.ndarray,
                        gamma: np.ndarray) -> np.ndarray:
    """``x + branch · gamma`` (``gamma`` broadcast over the token axes),
    computed in place on ``branch`` — which the caller must own outright —
    as ``(branch · gamma) + x``; ``x`` is only read."""
    branch *= _over_tokens(gamma, branch.ndim)
    branch += x
    return branch


def fused_time_features(t: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Fourier features ``[sin(t·f), cos(t·f)]`` of diffusion times
    ``(batch,)`` -> ``(batch, 2·len(freqs))``."""
    angles = t.reshape(-1, 1) * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def fused_concat_add(arrays, field: np.ndarray) -> np.ndarray:
    """``concatenate(arrays, axis=-1) + field``, added in place on the
    concatenation."""
    out = np.concatenate(arrays, axis=-1)
    out += field
    return out
