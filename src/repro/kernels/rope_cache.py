"""Memoized axial 2D RoPE rotation tables.

Every Swin block (and every SWiPe sharded attention call) needs the same
``(cos, sin)`` tables for a given ``(window, head_dim)`` —
the tables depend only on within-window token coordinates, so shifted and
unshifted windows, all blocks of a model, and all models of a process can
share one pair of read-only arrays.  The builder delegates to the canonical
:func:`repro.model.rope.axial_rope_table`, so cached tables are bitwise
identical to freshly built ones.

The same cache holds the *full-width* forms the rotary kernel multiplies by
(:func:`rotation_tables`): ``cos``/``sin`` spread over both slots of every
feature pair and over the axes that sit inside the token axis in memory, so
the kernel's ufuncs run over one long contiguous inner axis.
"""

from __future__ import annotations

import numpy as np

from .plan_cache import LRUCache

__all__ = ["rope_tables"]

_ROPE_TABLES = LRUCache("rope_tables", maxsize=32)


def rope_tables(window: tuple[int, int], head_dim: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only float32 ``(cos, sin)`` tables of shape
    ``(wh*ww, head_dim // 2)``; keyed by ``(window, head_dim)``."""
    key = ((int(window[0]), int(window[1])), int(head_dim))

    def build() -> tuple[np.ndarray, np.ndarray]:
        # Imported lazily: repro.nn (our importer's package) is itself
        # imported by repro.model, so a top-level import would be circular.
        from ..model.rope import axial_rope_table
        cos, sin = axial_rope_table(*key)
        cos.setflags(write=False)
        sin.setflags(write=False)
        return cos, sin

    return _ROPE_TABLES.get_or_build(key, build)


def _address(a: np.ndarray) -> tuple:
    return (a.__array_interface__["data"][0], a.shape, a.strides, a.dtype.str)


def rotation_tables(cos: np.ndarray, sin: np.ndarray, shape: tuple[int, ...],
                    inverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Full-width ``(C, S)`` with ``x*C + swap(x)*S`` the pair rotation of
    an ``x`` of ``shape`` (``swap`` exchanges the two slots of each pair).

    ``cos``/``sin`` broadcast against ``shape[:-1] + (shape[-1] // 2,)``.
    ``C`` repeats ``cos`` into both slots and ``S`` is ``[-sin, +sin]``
    (``[+sin, -sin]`` for the ``inverse`` rotation, i.e. the backward); both
    are materialized over every axis of ``shape`` from the first one the
    tables vary along, and stay broadcast over the axes before it.

    Read-only inputs — what :func:`rope_tables` hands out, and views of it —
    are memoized by memory address (the entry pins them, so the address
    cannot be reused while it is cached); writable inputs are rebuilt.
    """
    def build() -> tuple:
        first = next((i for i, n in enumerate(cos.shape[:-1]) if n != 1),
                     cos.ndim - 1)
        span = tuple(shape[len(shape) - cos.ndim + first:])
        pairs = span[:-1] + (span[-1] // 2, 2)
        dtype = np.result_type(cos, sin)
        c = np.empty(pairs, dtype=dtype)
        s = np.empty(pairs, dtype=dtype)
        c[...] = cos.reshape(cos.shape[first:])[..., None]
        s[...] = sin.reshape(sin.shape[first:])[..., None]
        negated = s[..., int(inverse)]
        np.negative(negated, out=negated)
        c, s = c.reshape(span), s.reshape(span)
        c.setflags(write=False)
        s.setflags(write=False)
        return c, s, cos, sin

    if cos.flags.writeable or sin.flags.writeable:
        return build()[:2]
    key = (_address(cos), _address(sin), tuple(shape[-cos.ndim:]), inverse)
    return _ROPE_TABLES.get_or_build(key, build)[:2]
