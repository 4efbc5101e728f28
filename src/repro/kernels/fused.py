"""Fused hot-path kernels: rotary embedding and softmax(QKᵀ)·V.

The reference implementations in :mod:`repro.nn.attention` build one autograd
node per primitive — for the attention core that is six graph nodes and as
many fresh full-size temporaries per call.  The kernels here compute the same
mathematics as a single node each, with in-place NumPy updates on
arena-pooled scratch where the value cannot escape.

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

from contextlib import contextmanager

import numpy as np

from ..tensor import Tensor, is_grad_enabled
from ..tensor.bf16 import bf16_matmul_enabled, round_bf16
from ..tensor.flops import add_flops, flops_enabled
from ..tensor.tensor import _unbroadcast
from ..tensor.workspace import arena
from .abft import guard_gemm
from .rope_cache import rotation_tables

__all__ = ["fused_apply_rotary", "fused_dot_product_attention",
           "fused_swiglu_forward"]

#: Softmax rows shorter than this take the transposed max.  Measured on the
#: CI sandbox (DESIGN §10): 8x faster than ``max(axis=-1)`` at 16 tokens,
#: 2.8x at 48, level at 64–96, 2.5x slower from 192 on.
_TRANSPOSED_MAX_BELOW = 64

#: Elements of the one flat scratch block both kernels work through —
#: 256 KB of float32, L2-resident, so pooled scratch does not grow with
#: the batch.
_BLOCK = 1 << 16


@contextmanager
def _scratch(elems: int, dtype):
    """A flat arena buffer of at least ``elems`` (and ``_BLOCK``) elements,
    released on exit — also when the block raises."""
    ws = arena()
    buf = ws.get((max(_BLOCK, elems),), dtype)
    try:
        yield buf
    finally:
        ws.release(buf)


def rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                 inverse: bool = False) -> np.ndarray:
    """Rotate the feature pairs of a raw array: ``(x0, x1) -> (x0·c − x1·s,
    x0·s + x1·c)``, or the transposed rotation (the backward) if ``inverse``.

    ``cos``/``sin`` broadcast against ``x.shape[:-1] + (head_dim // 2,)``.
    Computed as ``x·C + swap(x)·S`` on full-width tables, so every ufunc
    runs over the whole contiguous tail of ``x``.  Returns a fresh array.
    """
    c, s = rotation_tables(cos, sin, x.shape, inverse)
    out = np.empty(x.shape, dtype=np.result_type(x, c))
    # Batch axes flattened (a view of a packed or contiguous x), then
    # walked a scratch block at a time.
    windows = x.reshape((-1,) + c.shape)
    rotated = out.reshape(windows.shape)
    pairs = (-1,) + c.shape[:-1] + (c.shape[-1] // 2, 2)
    step = max(1, _BLOCK // max(1, c.size))
    with _scratch(c.size, out.dtype) as scratch:
        for start in range(0, len(windows), step):
            part = windows[start:start + step]
            swapped = scratch[:part.size].reshape(part.shape)
            src, dst = part.reshape(pairs), swapped.reshape(pairs)
            dst[..., 0] = src[..., 1]
            dst[..., 1] = src[..., 0]
            np.multiply(part, c, out=rotated[start:start + step])
            swapped *= s
            rotated[start:start + step] += swapped
    return out


def fused_apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate feature pairs of ``x`` by per-token angles, as one graph node.

    Same contract as :func:`repro.nn.attention.apply_rotary`:
    ``x`` is ``(..., tokens, head_dim)``, ``cos``/``sin`` are
    ``(tokens, head_dim // 2)`` — or anything that broadcasts the same way,
    e.g. ``(tokens, 1, head_dim // 2)`` against a packed
    ``(..., tokens, heads, head_dim)``.
    """
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
    with _scratch(_BLOCK, scores.dtype) as scratch:
        for start in range(0, len(flat), step):
            part = flat[start:start + step]
            columns = scratch[:part.size].reshape(tokens, len(part))
            np.copyto(columns, part.T)
            np.maximum.reduce(columns, axis=0, out=out[start:start + step])
    return out.reshape(scores.shape[:-1] + (1,))


def _matmul_transposed(a: np.ndarray, bT: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = a @ bT`` for a ``bT`` that is a transposed (strided)
    view: copied contiguous a scratch block at a time, so the small GEMMs
    take BLAS's plain NN path and the copy never leaves L2."""
    if a.ndim < 3 or a.shape[:-2] != bT.shape[:-2]:
        a, bT, out = a[None], bT[None], out[None]   # broadcasting: one slab
    slab = bT[0].size
    step = max(1, _BLOCK // max(1, slab))
    with _scratch(slab, bT.dtype) as scratch:
        for start in range(0, len(bT), step):
            part = bT[start:start + step]
            block = scratch[:part.size].reshape(part.shape)
            np.copyto(block, part)
            np.matmul(a[start:start + step], block,
                      out=out[start:start + step])


def fused_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Softmax attention ``softmax(q·kᵀ/√d)·v`` as one graph node.

    Same contract as :func:`repro.nn.attention.dot_product_attention`:
    shapes ``(..., tokens, head_dim)`` in and out, float32 accumulation via
    the same NumPy matmuls, max-subtracted softmax.  Operands may be any
    strided views (the packed QKV projection hands over three); the result
    is written token-major — ``(..., tokens, heads, head_dim)`` in memory —
    so the caller's head merge is a view.
    """
    qa, ka, va = q.data, k.data, v.data
    bf16 = bf16_matmul_enabled()
    if bf16:
        qa_, ka_, va_ = round_bf16(qa), round_bf16(ka), round_bf16(va)
    else:
        qa_, ka_, va_ = qa, ka, va
    tokens, head_dim = ka_.shape[-2:]
    # Matches the reference's `1.0 / np.sqrt(hd)` python-float -> fp32 coerce.
    scale = np.float32(1.0 / np.sqrt(qa.shape[-1]))

    grad_needed = is_grad_enabled() and (
        q.requires_grad or k.requires_grad or v.requires_grad)
    scores_shape = np.broadcast_shapes(qa_.shape[:-2], ka_.shape[:-2]) \
        + (qa_.shape[-2], tokens)
    out_shape = np.broadcast_shapes(scores_shape[:-2], va_.shape[:-2]) \
        + (scores_shape[-2], va_.shape[-1])
    kT = np.swapaxes(ka_, -1, -2)
    ws = arena()
    # probs is captured by the backward closure, so it is pooled only when
    # there is none.
    scores = np.empty(scores_shape, np.result_type(qa_, ka_)) if grad_needed \
        else ws.get(scores_shape, np.result_type(qa_, ka_))
    try:
        _matmul_transposed(qa_, kT, scores)
        guard_gemm(qa_, kT, scores, "attention.scores")
        if flops_enabled():
            add_flops(2 * scores.size * head_dim)
        scores *= scale
        scores -= _row_max(scores)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        probs = scores
        probs_ = round_bf16(probs) if bf16 else probs
        out = _empty_token_major(out_shape, np.result_type(probs_, va_))
        np.matmul(probs_, va_, out=out)
        guard_gemm(probs_, va_, out, "attention.out")
        if flops_enabled():
            add_flops(2 * out.size * tokens)
    finally:
        if not grad_needed:
            ws.release(scores)
    if not grad_needed:
        return Tensor._make(out, (q, k, v), lambda g: (None, None, None))

    q_shape, v_shape = qa.shape, va.shape
    kT_shape = kT.shape

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


def fused_swiglu_forward(x: Tensor, w_gate: np.ndarray, w_up: np.ndarray,
                         w_down: np.ndarray) -> np.ndarray:
    """Inference-only SwiGLU ``(silu(x·Wg) * (x·Wu)) · Wd`` on raw arrays.

    All three hidden-width intermediates live in arena scratch; only the
    (narrow) output is freshly allocated.  Caller guarantees no-grad.
    """
    xa = x.data
    bf16 = bf16_matmul_enabled()
    xa_ = round_bf16(xa) if bf16 else xa
    wg = round_bf16(w_gate) if bf16 else w_gate
    wu = round_bf16(w_up) if bf16 else w_up
    ws = arena()
    hidden_shape = xa.shape[:-1] + (w_gate.shape[-1],)
    hidden_dtype = np.result_type(xa_, wg)
    gate = ws.get(hidden_shape, hidden_dtype)
    np.matmul(xa_, wg, out=gate)
    guard_gemm(xa_, wg, gate, "swiglu.gate")
    if flops_enabled():
        add_flops(2 * gate.size * xa_.shape[-1])
    # silu: sig = 1 / (1 + exp(-h)); h *= sig  (same ufunc chain as
    # Tensor.silu, with the scratch pooled).
    sig = ws.get(hidden_shape, hidden_dtype)
    np.negative(gate, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    gate *= sig
    up = ws.get(hidden_shape, hidden_dtype)
    np.matmul(xa_, wu, out=up)
    guard_gemm(xa_, wu, up, "swiglu.up")
    if flops_enabled():
        add_flops(2 * up.size * xa_.shape[-1])
    gate *= up
    gate_ = round_bf16(gate) if bf16 else gate
    wd = round_bf16(w_down) if bf16 else w_down
    out = gate_ @ wd
    guard_gemm(gate_, wd, out, "swiglu.down")
    if flops_enabled():
        add_flops(2 * out.size * gate_.shape[-1])
    ws.release(up)
    ws.release(sig)
    ws.release(gate)
    return out
