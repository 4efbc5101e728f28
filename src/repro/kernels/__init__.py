"""Hot-path kernel plans and fused ops (the "make it fast, keep it exact"
layer).

``repro.kernels`` sits between the layer library and the autograd engine:

* :mod:`~repro.kernels.plan_cache` — bounded LRU caches with hit/miss
  counters, shared by every plan type;
* :mod:`~repro.kernels.window_plans` — window partition/merge gather plans
  with the Swin cyclic shift folded in, keyed by ``(grid, window, shift)``;
* :mod:`~repro.kernels.rope_cache` — memoized axial 2D RoPE tables keyed by
  ``(window, head_dim, base, dtype)``;
* :mod:`~repro.kernels.fused` — one call per chain: softmax(QKᵀ)·V over
  the packed QKV projection, norm-modulate, gate-residual, linear and
  SwiGLU are one graph node with a hand-written backward when handed
  Tensors and raw, in-place, on :mod:`repro.tensor.workspace` scratch when
  handed arrays; the rotary (in place in the packed projection, its
  backward inside the attention node's), LayerNorm, the time features and
  the embed concat have the raw form alone.

Every kernel is bit-exact against the reference implementation it replaces
(golden tests); :func:`disable_kernels` flips the consumers (every layer of
:mod:`repro.nn` the model uses, :class:`repro.model.SwinBlock`,
:class:`repro.model.Aeris`) back to the reference paths, which is how the
golden tests and the before/after benchmarks get both behaviors from one
build.  The modules' Tensor chains are the reference every kernel, taped or
tape-free, is held to.
"""

from __future__ import annotations

from contextvars import ContextVar

from ..scoped import scoped
from ..tensor import is_grad_enabled
from .abft import abft_guard, guard_gemm
from .fused import (
    fused_apply_rotary,
    fused_concat_add,
    fused_dot_product_attention,
    fused_gate_residual,
    fused_layer_norm,
    fused_linear,
    fused_norm_modulate,
    fused_silu,
    fused_swiglu_forward,
    fused_time_features,
)
from .plan_cache import LRUCache, clear_plan_caches, plan_cache_stats
from .rope_cache import rope_tables
from .window_plans import WindowPlan, plan_merge, plan_partition, window_plan

__all__ = [
    "kernels_enabled", "disable_kernels",
    "abft_guard", "guard_gemm",
    "LRUCache", "plan_cache_stats", "clear_plan_caches",
    "WindowPlan", "window_plan", "plan_partition", "plan_merge",
    "rope_tables",
    "fused_apply_rotary", "fused_dot_product_attention",
    "fused_swiglu_forward", "fused_linear", "fused_silu",
    "fused_norm_modulate", "fused_layer_norm", "fused_gate_residual",
    "fused_time_features", "fused_concat_add",
]

_ENABLED = ContextVar("kernels_enabled", default=True)


def kernels_enabled() -> bool:
    """Whether consumers should take the planned/fused paths."""
    return _ENABLED.get()


def _tape_free() -> bool:
    """Whether a module may hand its kernels raw arrays: the kernel layer
    is live and no graph is being recorded (``no_grad``), so a kernel may
    write in place on what the module owns, or has a raw form alone."""
    return _ENABLED.get() and not is_grad_enabled()


def disable_kernels():
    """Run the block on the reference (unfused, plan-free) paths."""
    return scoped(_ENABLED, False)
