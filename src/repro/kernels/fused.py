"""Fused hot-path kernels: one call per chain of the forward — rotary
embedding, softmax(QKᵀ)·V, norm-modulate, gate-residual, linear, SwiGLU —
and the tape-free forms of the rest of an inference forward.

The reference implementations in :mod:`repro.nn` build one autograd node per
primitive — for the attention core that is six graph nodes and as many fresh
full-size temporaries per call.  The kernels here compute the same
mathematics as a single node each, with in-place NumPy updates on
arena-pooled scratch where the value cannot escape.

One convention serves the taped and the tape-free forward: handed
``Tensor``s a kernel returns one graph node with a hand-written backward
(a plain ``Tensor`` when nothing records a tape), handed raw arrays — what
a module does to let the kernel write in place on memory the module owns —
it returns a raw array.  Both run the same forward body; the taped call
only may not overwrite what its backward reads.  LayerNorm, SiLU, the time
features, the embed concat and the rotary have the raw form alone (the
taped attention core rotates its own gradient back).

Memory rule.  An array handed in is never written: the residual stream, a
parameter or a cached state may be held by the caller.  In-place updates
touch only what the kernel — or, for a raw :func:`fused_gate_residual`'s
``branch`` and the packed projection :func:`fused_apply_rotary` rotates,
taped or not, the calling module — just produced.  No result, and nothing a
backward closure keeps, is arena scratch; a closure draws its temporaries
from the arena and hands them back before it returns.

Fan-in rule.  The sweep adds a node's contributions in reverse topological
order, left to right over its parents, and float addition does not
associate: a fused node whose input has other consumers (the residual
stream feeds ``x·inv``, ``x·x`` twice and the residual add) lists that
parent once per contribution of the chain it replaces, in the chain's
order, never pre-summed.

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
* a softmax over short rows runs key-major, on a cache-blocked transposed
  copy, so each reduction and broadcast spans rows: ``max`` is exact in any
  order, and the pairwise ``sum`` is :func:`_key_sum`, NumPy's own
  accumulation order rebuilt across rows;
* GEMM outputs may be written in another order — the K order of every dot
  product is untouched — but an NN and an NT BLAS call of one product can
  differ in the last bit, so every GEMM multiplies operands in the layout
  the chain kept them (``q @ kᵀ`` on the transposed view, as the chain does).
"""

from __future__ import annotations

from contextvars import ContextVar

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

#: Softmax rows shorter than this run key-major.  Measured (DESIGN §10): the
#: transposed ``max`` alone beats ``max(axis=-1)`` 8x at 16 tokens, 2.8x at
#: 48, is level at 64–96 and 2.5x slower from 192 on.
_TRANSPOSED_MAX_BELOW = 64

#: Elements of the one flat scratch block the kernels work through —
#: 256 KB of float32, L2-resident, so pooled scratch does not grow with
#: the batch.
_BLOCK = 1 << 16


#: The row split a training step runs in: ``None`` (serial), or its
#: :class:`repro.rows.KeptWorkers` — a worker, which holds the batch's
#: first rows and sends, or its caller, which holds the last and receives
#: (:func:`_over_rows`).  Set by the training engine around a split step.
_ROW_SPLIT = ContextVar("row_split", default=None)


def _scratch(elems: int, dtype) -> np.ndarray:
    """A flat arena buffer of at least ``elems`` (and ``_BLOCK``) elements.
    The caller hands it back with ``arena().release`` in a ``finally``."""
    return arena().get((max(_BLOCK, elems),), dtype)


def _taped(*tensors) -> bool:
    """Whether a kernel handed these Tensors owes the tape a backward."""
    return is_grad_enabled() and any(
        t is not None and t.requires_grad for t in tensors)


def _gemm_dtype(a: np.ndarray, b: np.ndarray):
    """The dtype :func:`_gemm` computes ``a @ b`` in."""
    if bf16_matmul_enabled():
        return _FLOAT32             # what round_bf16 hands back
    return a.dtype if a.dtype is b.dtype else np.result_type(a, b)


def _gemm(a: np.ndarray, b: np.ndarray, label: str | None = None,
          out: np.ndarray | None = None, transpose_b: bool = False) -> tuple:
    """``a @ b`` — ``a @ bᵀ`` if ``transpose_b`` — with everything a kernel
    GEMM owes the reference node it replaces: operands rounded to BF16
    under autocast, the fault hook and ABFT check under ``label`` (``None``:
    unguarded, as a plain ``Tensor.__matmul__`` is), and that node's FLOPs.

    Returns ``(product, a, b)`` with the operands as multiplied — what a
    backward has to reuse.  Under autocast a transposed ``b`` is rounded as
    the chain rounds its ``k.swapaxes(-1, -2)`` — ``bᵀ``, contiguous — and
    handed back as that array's transposed view (the layout rule).
    """
    right = np.swapaxes(b, -1, -2) if transpose_b else b
    if bf16_matmul_enabled():
        a, right = round_bf16(a), round_bf16(right)
        b = np.swapaxes(right, -1, -2) if transpose_b else right
    out = np.matmul(a, right, out=out)
    if label is not None:
        guard_gemm(a, right, out, label)
    if flops_enabled():
        # 2*m*k*n per output batch element (multiply + add).
        add_flops(2 * out.size * a.shape[-1])
    return out, a, b


def _gemm_backward(g: np.ndarray, a: np.ndarray, b: np.ndarray,
                   need_a: bool, need_b: bool) -> tuple:
    """``(d a, d b)`` of an unguarded ``a @ b`` with a 2-D ``b`` — the
    operands as :func:`_gemm` multiplied them — exactly as
    ``Tensor.__matmul__`` computes and books them: ``g`` rounded under
    autocast, both GEMMs' FLOPs whichever is taken, the weight gradient a
    batched GEMM summed over its leading axes.  ``None`` where not needed.
    """
    gq = round_bf16(g) if bf16_matmul_enabled() else g
    if flops_enabled():
        add_flops((4 if a.ndim > 1 else 2) * g.size * a.shape[-1])
    ga = gq @ b.T if need_a else None
    if not need_b:
        return ga, None
    if a.ndim <= 2:
        return ga, np.outer(a, gq) if a.ndim == 1 else _over_rows(a, gq, None)
    ws = arena()
    batched = ws.get(a.shape[:-2] + b.shape, np.result_type(a, gq))
    try:
        np.matmul(np.swapaxes(a, -1, -2), gq, out=batched)
        return ga, _over_rows(batched, None, b.shape)
    finally:
        ws.release(batched)


def _over_rows(a: np.ndarray, g: np.ndarray | None,
               shape: tuple | None) -> np.ndarray | None:
    """A parameter's gradient, reduced over the step's batch rows: ``a.T
    @ g`` for a 2-D weight (its K is the rows), or ``a`` summed over its
    leading axes down to ``shape``.  Serial, exactly that expression.

    In a row split (:data:`_ROW_SPLIT`) the reduction keeps the serial
    order across the two processes, the worker's part first.  The worker
    sends its part — for the GEMM its rows of ``a`` and ``g``, which the
    caller concatenates before its own and multiplies once; for the sum
    its own sum, the serial chain's prefix (NumPy adds leading-axis items
    one after another), which the caller's sum continues with its own
    items in order — and keeps no gradient (``None``).  Both sweep the
    same graph, so the caller's ``k``-th reduction reads the worker's
    ``k``-th message."""
    split = _ROW_SPLIT.get()
    if split is None:
        return _unbroadcast(a, shape) if g is None else a.T @ g
    if g is not None:
        if split.in_worker:
            split.put((a, g))
            return None
        a_first, g_first = split.take()
        return np.concatenate([a_first, a]).T @ np.concatenate([g_first, g])
    if a.shape[a.ndim - len(shape):] != shape:
        raise ValueError(f"a row split sums leading axes only, not "
                         f"{a.shape} to {shape}")
    if split.in_worker:
        split.put(_unbroadcast(a, shape))
        return None
    items = a.reshape((-1,) + shape)
    return np.concatenate([split.take()[None], items]).sum(axis=0)


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


def fused_apply_rotary(x: np.ndarray, cos: np.ndarray,
                       sin: np.ndarray) -> np.ndarray:
    """Rotate feature pairs of ``x`` by per-token angles, in place, and
    return it: :func:`repro.nn.attention.apply_rotary`'s rotation, with
    ``cos``/``sin`` broadcasting against ``x.shape[:-1] + (head_dim // 2,)``
    (``(tokens, 1, 1, head_dim // 2)`` against the Q/K part of a packed
    projection).  ``x`` is a projection the calling module owns, taped or
    not: the taped attention core rotates its gradient back."""
    return rotate_pairs(x, cos, sin, out=x)


def _key_sum(columns: np.ndarray, acc: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x, axis=-1)`` of float rows handed over key-major
    (``columns = xᵀ``, ``(keys ≤ 128, rows)``) into ``out``, in NumPy's own
    pairwise order: eight accumulators ``r[j] = x[j] + x[8+j] + …``, the
    tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, the other keys in order
    (under eight keys: all of them), then ``+ 0.0`` — the reduction starts
    from its identity, so an all ``-0.0`` row sums to ``+0.0``.  ``acc`` is
    ``(12, rows)`` scratch; under 16 keys six rows of it, under 8 none."""
    keys = len(columns)
    body = keys - keys % 8
    if not body:
        np.add.reduce(columns, axis=0, out=out)
    else:
        eight = columns[:8]
        if body > 8:
            eight = np.add(eight, columns[8:16], out=acc[4:12])
            for start in range(16, body, 8):
                eight += columns[start:start + 8]
        four = np.add(eight[::2], eight[1::2], out=acc[:4])
        two = np.add(four[::2], four[1::2], out=acc[4:6])
        np.add(two[0], two[1], out=out)
        for row in columns[body:]:
            out += row
    out += 0.0
    return out


def _softmax(scores: np.ndarray, scale) -> np.ndarray:
    """``softmax(scores · scale)`` over the last axis, in place.  Short rows
    go key-major a block at a time: scaled in the transposed copy, then max,
    shift, ``exp``, sum and divide each run across rows, and copied back."""
    tokens = scores.shape[-1]
    if tokens >= _TRANSPOSED_MAX_BELOW:
        scores *= scale
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return scores
    flat = scores.reshape(-1, tokens)
    step = _BLOCK // tokens
    scratch = _scratch(_BLOCK, scores.dtype)
    try:
        for start in range(0, len(flat), step):
            part = flat[start:start + step]
            columns = scratch[:part.size].reshape(tokens, len(part))
            np.multiply(part.T, scale, out=columns)
            # Copied out, the block's own memory holds max, sum, accumulators.
            spare = part.reshape(tokens, len(part))
            np.maximum.reduce(columns, axis=0, out=spare[0])
            columns -= spare[0]
            np.exp(columns, out=columns)
            columns /= _key_sum(columns, spare[1:], spare[0])
            np.copyto(part, columns.T)
    finally:
        arena().release(scratch)
    return scores


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b).sum(axis=-1, keepdims=True)``; short rows multiplied a
    block at a time, then summed key-major."""
    tokens = a.shape[-1]
    if tokens >= _TRANSPOSED_MAX_BELOW:
        return (a * b).sum(axis=-1, keepdims=True)
    flat_a, flat_b = a.reshape(-1, tokens), b.reshape(-1, tokens)
    out = np.empty(len(flat_a), np.result_type(a, b))
    step = _BLOCK // (2 * tokens)
    scratch = _scratch(_BLOCK, out.dtype)
    try:
        for start in range(0, len(out), step):
            block = slice(start, start + step)
            product, columns = scratch[:2 * out[block].size * tokens].reshape(
                2, tokens, -1)
            rowwise = np.multiply(flat_a[block], flat_b[block],
                                  out=product.reshape(-1, tokens))
            np.copyto(columns, rowwise.T)
            # The product, copied out, makes room for the accumulators.
            _key_sum(columns, product, out[block])
    finally:
        arena().release(scratch)
    return out.reshape(a.shape[:-1] + (1,))


def _head_major(packed: np.ndarray, part: int) -> np.ndarray:
    """Q (0), K (1) or V (2) of a packed ``(..., tokens, 3, heads, d)``
    array as a ``(..., heads, tokens, d)`` view."""
    return np.swapaxes(packed[..., part, :, :], -2, -3)


def fused_dot_product_attention(qkv, rotary: tuple | None = None):
    """Softmax attention ``softmax(q·kᵀ/√d)·v`` over a packed projection, as
    one graph node (a raw array in is the tape-free call: a raw array out).

    ``qkv`` is ``(..., tokens, 3, heads, head_dim)``, as the QKV projection
    produces it; the result is ``(..., tokens, heads, head_dim)``.  Per
    head, the contract of :func:`repro.nn.attention.dot_product_attention`:
    float32 accumulation via the same NumPy matmuls, max-subtracted softmax.

    Taped, the node's one parent is ``qkv`` and its backward hands back one
    packed gradient: d(Q), d(K), d(V) written into their slots, d(Q), d(K)
    rotated back in place by ``rotary`` — the ``(cos, sin)`` tables the
    caller rotated Q and K by — then ``+ 0.0``, which makes it byte for
    byte the ``0 + rot(0 + g)`` / ``0 + g`` of the slice chain it replaces.
    """
    raw = type(qkv) is np.ndarray
    packed = qkv if raw else qkv.data
    qa, ka, va = (_head_major(packed, part) for part in range(3))
    tokens, head_dim = ka.shape[-2:]
    # Matches the reference's `1.0 / np.sqrt(hd)` python-float -> fp32 coerce.
    scale = np.float32(1.0 / np.sqrt(head_dim))

    grad_needed = not raw and _taped(qkv)
    scores_shape = qa.shape[:-1] + (tokens,)
    dtype = _gemm_dtype(qa, ka)
    ws = arena()
    # probs is captured by the backward closure, so it is pooled only when
    # there is none.
    scores = np.empty(scores_shape, dtype) if grad_needed \
        else ws.get(scores_shape, dtype)
    out = np.empty(packed.shape[:-3] + packed.shape[-2:],
                   _gemm_dtype(scores, va))
    try:
        _, qa_, ka_ = _gemm(qa, ka, "attention.scores", scores,
                            transpose_b=True)
        probs = _softmax(scores, scale)
        _, probs_, va_ = _gemm(probs, va, "attention.out",
                               np.swapaxes(out, -2, -3))
    finally:
        if not grad_needed:
            ws.release(scores)
    if raw:
        return out
    if not grad_needed:
        return Tensor(out)

    bf16 = bf16_matmul_enabled()

    def backward(g):
        # Head-major, as the chain's swapped views hand it over (and rounded
        # in that order under autocast).
        g_ = np.swapaxes(g, -2, -3)
        if bf16:
            g_ = round_bf16(g_)
        # out = probs_ @ va_  (backward reuses the rounded forward operands,
        # exactly as Tensor.__matmul__ captures them).
        if flops_enabled():
            add_flops(4 * g.size * tokens + 4 * probs.size * head_dim)
        grad = np.empty(packed.shape, np.result_type(g_, probs_, qa_, va_))
        g_q, g_k, g_v = (_head_major(grad, part) for part in range(3))
        np.matmul(np.swapaxes(probs_, -1, -2), g_, out=g_v)
        g_scores = g_ @ np.swapaxes(va_, -1, -2)
        # softmax backward (on the unrounded probabilities), in place on
        # the freshly computed d(probs): (g - sum(g*p)) * p * scale.
        g_scores -= _row_dot(g_scores, probs)
        g_scores *= probs
        g_scores *= scale
        g_scores_ = round_bf16(g_scores) if bf16 else g_scores
        # scores = qa_ @ kT  backward.  d(K)ᵀ is computed contiguous, as the
        # chain's GEMM writes it, then copied into its slot.
        np.matmul(g_scores_, ka_, out=g_q)
        g_kT = ws.get(ka_.shape[:-2] + (head_dim, tokens), grad.dtype)
        try:
            np.matmul(np.swapaxes(qa_, -1, -2), g_scores_, out=g_kT)
            np.copyto(g_k, np.swapaxes(g_kT, -1, -2))
        finally:
            ws.release(g_kT)
        if rotary is not None:
            qk = grad[..., :2, :, :]
            rotate_pairs(qk, *rotary, inverse=True, out=qk)
        grad += 0.0             # -0.0 -> +0.0, as the chain's `0 + g` sums
        return (grad,)

    return Tensor._make(out, (qkv,), backward)


# -- the other chains: Tensors in -> one graph node, raw arrays in -> a raw
# -- array that owns its memory out ------------------------------------------

def _sigmoid_into(out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``out[...] = 1/(1 + exp(−h))`` by the ufunc chain of ``Tensor.silu``,
    for an ``out`` that does not alias ``h``."""
    np.negative(h, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def fused_silu(x: np.ndarray) -> np.ndarray:
    """``Tensor.silu`` of a raw array, into one fresh array."""
    out = _sigmoid_into(np.empty_like(x), x)
    out *= x
    return out


def fused_linear(x, weight, bias=None):
    """``x @ weight + bias``, the bias added in place on the product."""
    raw = type(x) is np.ndarray
    out, a, b = _gemm(*((x, weight) if raw else (x.data, weight.data)))
    if bias is not None:
        out += bias if raw else bias.data
    if raw:
        return out

    def backward(g):
        g_bias = _over_rows(g, None, bias.shape) \
            if bias is not None and bias.requires_grad else None
        return _gemm_backward(g, a, b, x.requires_grad,
                              weight.requires_grad) + (g_bias,)

    return Tensor._make(
        out, (x, weight) if bias is None else (x, weight, bias), backward)


def fused_swiglu_forward(x, w_gate, w_up, w_down):
    """SwiGLU ``(silu(x·Wg) * (x·Wu)) · Wd``.  Raw weight arrays in (with
    ``x`` a Tensor or an array) is the tape-free call, a raw array out:
    its three GEMMs are ABFT-guarded and the hidden-width intermediates
    live in two arena buffers (the sigmoid's is reused for the product,
    the gate's for the up projection).  Parameters in is one graph node
    out — unguarded, as the ``Linear`` chain it replaces is — that keeps
    the gate, its sigmoid and the up projection for its backward.
    """
    raw = type(w_gate) is np.ndarray
    xa = x.data if isinstance(x, Tensor) else x
    wg, wu, wd = (w_gate, w_up, w_down) if raw \
        else (w_gate.data, w_up.data, w_down.data)
    taped = not raw and _taped(x, w_gate, w_up, w_down)
    ws = arena()
    shape = xa.shape[:-1] + (wg.shape[-1],)
    dtype = _gemm_dtype(xa, wg)
    hidden = ws.get(shape, dtype)
    if taped:
        # What the backward reads is kept, so it is not arena scratch.
        gate, sig, up = (np.empty(shape, dtype) for _ in range(3))
    else:
        gate = ws.get(shape, dtype)
        sig, up = hidden, gate
    try:
        _, x_, wg_ = _gemm(xa, wg, None if taped else "swiglu.gate", gate)
        np.multiply(_sigmoid_into(sig, gate), gate, out=hidden)
        wu_ = _gemm(xa, wu, None if taped else "swiglu.up", up)[2]
        hidden *= up
        out, _, wd_ = _gemm(hidden, wd, None if taped else "swiglu.down")
    finally:
        ws.release(hidden)
        if not taped:
            ws.release(gate)
    if raw:
        return out
    if not taped:
        return Tensor(out)
    rounded = bf16_matmul_enabled()

    def backward(g):
        # Hidden-width temporaries, all consumed before this returns.
        silu, work = ws.get(shape, dtype), ws.get(shape, dtype)
        try:
            np.multiply(gate, sig, out=silu)
            hidden_ = np.multiply(silu, up, out=work)
            if rounded:
                hidden_ = round_bf16(hidden_)
            g_hidden, g_down = _gemm_backward(g, hidden_, wd_, True,
                                              w_down.requires_grad)
            # d silu(gate): g · up · sig · (1 + gate · (1 − sig))
            slope = np.subtract(1.0, sig, out=work)
            slope *= gate
            slope += 1.0
            g_gate = g_hidden * up
            g_gate *= sig
            g_gate *= slope
            g_x_gate, g_wg = _gemm_backward(
                g_gate, x_, wg_, x.requires_grad, w_gate.requires_grad)
            g_hidden *= silu
            g_x_up, g_wu = _gemm_backward(
                g_hidden, x_, wu_, x.requires_grad, w_up.requires_grad)
        finally:
            ws.release(work)
            ws.release(silu)
        # x twice: the gate's, then the up projection's (fan-in rule).
        return (g_x_gate, g_x_up, g_wg, g_wu, g_down)

    return Tensor._make(out, (x, x, w_gate, w_up, w_down), backward)


def _over_tokens(per_sample: np.ndarray, ndim: int) -> np.ndarray:
    """A ``(batch, dim)`` adaLN value shaped to broadcast over the token
    axes of an ``ndim``-dimensional activation."""
    return per_sample.reshape(per_sample.shape[:1]
                              + (1,) * (ndim - per_sample.ndim)
                              + per_sample.shape[-1:])


def _rsqrt_of_mean(sums: np.ndarray, count: int, eps: float,
                   keep: bool = False) -> np.ndarray:
    """``(sums / count + eps) ** -0.5`` on the (fresh) row sums, rounded as
    ``Tensor.mean`` and the norms' scalar coercions round:
    ``· float32(1/count)``, ``+ float32(eps)``, ``** -0.5``.  In place
    throughout, unless a backward is to read ``sums / count + eps`` —
    ``keep`` leaves that in ``sums`` and returns a new array."""
    sums *= np.float32(1.0 / count)
    sums += np.float32(eps)
    if keep:
        return sums ** -0.5
    sums **= -0.5
    return sums


def fused_norm_modulate(x, weight, eps: float, alpha=None, beta=None):
    """RMSNorm and, given ``(alpha, beta)``, the adaLN scale/shift:
    ``x · (mean(x²) + eps)^-½ · weight · (alpha + 1) + beta``.

    One fresh array serves as ``x²`` and then as the output every later
    step updates in place — the operations, operands and order of
    ``RMSNorm.forward`` followed by ``modulate``.
    """
    raw = type(x) is np.ndarray
    xa, wa, aa, ba = (t if raw or t is None else t.data
                      for t in (x, weight, alpha, beta))
    taped = not raw and _taped(x, weight, alpha, beta)
    out = np.multiply(xa, xa)
    mean_eps = out.sum(axis=-1, keepdims=True)
    inv = _rsqrt_of_mean(mean_eps, xa.shape[-1], eps, keep=taped)
    np.multiply(xa, inv, out=out)
    out *= wa
    if aa is not None:
        scale = _over_tokens(aa, xa.ndim) + 1.0
        out *= scale
        out += _over_tokens(ba, xa.ndim)
    if raw:
        return out
    if not taped:
        return Tensor(out)
    count = np.float32(1.0 / xa.shape[-1])

    def backward(g):
        # x·inv (and x·inv·w below) recomputed, not kept: full-size arrays
        # the same multiplies give back.
        normed = xa * inv
        g_alpha = g_beta = g_weight = None
        if alpha is not None:
            if beta.requires_grad:
                g_beta = _unbroadcast(g, scale.shape).reshape(ba.shape)
            if alpha.requires_grad:
                g_alpha = _unbroadcast(g * (normed * wa), scale.shape
                                       ).reshape(aa.shape)
            g = g * scale
        if weight.requires_grad:
            g_weight = _over_rows(g * normed, None, wa.shape)
        if not x.requires_grad:
            return (None, None, None, g_weight, g_alpha, g_beta)
        g = g * wa
        g_inv = _unbroadcast(g * xa, inv.shape)
        g_square = (g_inv * -0.5 * mean_eps ** -1.5 * count) * xa
        # x three times — the chain's `x * inv`, then `x * x` per operand —
        # each contribution separate, in the chain's order (fan-in rule).
        return (g * inv, g_square, g_square, g_weight, g_alpha, g_beta)

    return Tensor._make(out, (x, x, x, weight, alpha, beta)
                        if alpha is not None else (x, x, x, weight), backward)


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


def fused_gate_residual(x, branch, gamma):
    """``x + branch · gamma`` (``gamma`` broadcast over the token axes) as
    ``(branch · gamma) + x``.  Raw arrays in: computed in place on
    ``branch``, which the caller must own outright; ``x`` is only read.
    Tensors in: one graph node on a fresh array, ``branch`` kept for the
    gate's gradient."""
    if type(x) is np.ndarray:
        branch *= _over_tokens(gamma, branch.ndim)
        branch += x
        return branch
    gate = _over_tokens(gamma.data, branch.ndim)
    out = branch.data * gate
    out += x.data

    def backward(g):
        return (g if x.requires_grad else None,
                g * gate if branch.requires_grad else None,
                _unbroadcast(g * branch.data, gate.shape).reshape(gamma.shape)
                if gamma.requires_grad else None)

    return Tensor._make(out, (x, branch, gamma), backward)


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
