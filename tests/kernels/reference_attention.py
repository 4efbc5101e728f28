"""The taped kernel path of ``MultiHeadAttention`` as the previous
implementation built it, kept verbatim as a test-only oracle: a reshape, four
getitems, four swapaxes, a rotary node on a fresh Q/K copy, the three-operand
core and a reshape — twelve graph nodes per call, the packed gradient rebuilt
by the sweep from slice contributions.  The shipped path (Q/K rotated in
place, one core node over the packed projection, one packed gradient back)
must hand the QKV projection a byte-identical gradient.
"""

import numpy as np

from repro.kernels.fused import (
    _gemm,
    _gemm_dtype,
    _taped,
    rotate_pairs,
)
from repro.tensor import Tensor
from repro.tensor.bf16 import bf16_matmul_enabled, round_bf16
from repro.tensor.flops import add_flops, flops_enabled
from repro.tensor.tensor import _unbroadcast
from repro.tensor.workspace import arena


def _empty_token_major(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized ``(..., heads, tokens, head_dim)`` array whose memory
    order is ``(..., tokens, heads, head_dim)``."""
    if len(shape) < 3:
        return np.empty(shape, dtype=dtype)
    memory = shape[:-3] + (shape[-2], shape[-3], shape[-1])
    return np.swapaxes(np.empty(memory, dtype=dtype), -2, -3)


def fused_apply_rotary(x, cos: np.ndarray, sin: np.ndarray):
    """Rotate feature pairs of ``x`` by per-token angles, as one graph node."""
    if type(x) is np.ndarray:
        return rotate_pairs(x, cos, sin, out=x)

    def backward(g):
        return (rotate_pairs(g, cos, sin, inverse=True),)

    return Tensor._make(rotate_pairs(x.data, cos, sin), (x,), backward)


def fused_dot_product_attention(q, k, v):
    """Softmax attention ``softmax(q·kᵀ/√d)·v`` as one graph node over three
    head-major operands."""
    raw = type(q) is np.ndarray
    qa, ka, va = (q, k, v) if raw else (q.data, k.data, v.data)
    tokens, head_dim = ka.shape[-2:]
    scale = np.float32(1.0 / np.sqrt(qa.shape[-1]))

    grad_needed = not raw and _taped(q, k, v)
    scores_lead = out_lead = qa.shape[:-2]
    if not scores_lead == ka.shape[:-2] == va.shape[:-2]:
        scores_lead = np.broadcast_shapes(scores_lead, ka.shape[:-2])
        out_lead = np.broadcast_shapes(scores_lead, va.shape[:-2])
    scores_shape = scores_lead + (qa.shape[-2], tokens)
    dtype = _gemm_dtype(qa, ka)
    ws = arena()
    scores = np.empty(scores_shape, dtype) if grad_needed \
        else ws.get(scores_shape, dtype)
    try:
        _, qa_, ka_ = _gemm(qa, ka, "attention.scores", scores,
                            transpose_b=True)
        scores *= scale
        scores -= scores.max(axis=-1, keepdims=True)
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
        if flops_enabled():
            add_flops(4 * g.size * tokens + 4 * probs.size * head_dim)
        g_q = g_k = g_v = None
        if v.requires_grad:
            g_v = _unbroadcast(np.swapaxes(probs_, -1, -2) @ g_, v_shape)
        if q.requires_grad or k.requires_grad:
            g_scores = _unbroadcast(g_ @ np.swapaxes(va_, -1, -2),
                                    probs.shape)
            g_scores -= (g_scores * probs).sum(axis=-1, keepdims=True)
            g_scores *= probs
            g_scores *= scale
            g_scores_ = round_bf16(g_scores) if bf16 else g_scores
            if q.requires_grad:
                g_q = _unbroadcast(g_scores_ @ ka_, q_shape)
            if k.requires_grad:
                g_k = np.swapaxes(_unbroadcast(
                    np.swapaxes(qa_, -1, -2) @ g_scores_, kT_shape), -1, -2)
        return (g_q, g_k, g_v)

    return Tensor._make(out, (q, k, v), backward)


def attention_forward(attn, x: Tensor, rope_cos=None, rope_sin=None):
    """The previous taped kernel branch of ``MultiHeadAttention.forward``."""
    *lead, tokens, dim = x.shape
    qkv = attn.qkv(x)
    qkv = qkv.reshape(*lead, tokens, 3, attn.heads, attn.head_dim)
    qk, v = qkv[..., :2, :, :], qkv[..., 2, :, :]
    if rope_cos is not None:
        qk = fused_apply_rotary(qk, rope_cos[:, None, None, :],
                                rope_sin[:, None, None, :])
    q, k, v = (t.swapaxes(-2, -3)
               for t in (qk[..., 0, :, :], qk[..., 1, :, :], v))
    out = fused_dot_product_attention(q, k, v)
    out = out.swapaxes(-2, -3).reshape(*lead, tokens, dim)
    return attn.out(out)
