"""A reusable workspace arena for kernel scratch buffers.

The fused hot-path kernels (:mod:`repro.kernels.fused`) need large
intermediate arrays — attention score matrices, SwiGLU hidden activations —
whose lifetime is confined to a single forward call.  Allocating them fresh
each call makes the allocator (and the page-fault handler) part of the hot
path.  The arena pools released memory as flat byte buffers and serves a
request from the smallest idle buffer that holds it, so steady-state
inference reuses the same memory on every step *and* what stays pooled is
(most requests outstanding at once) × (the largest request) — not one
buffer per shape ever asked for, which on a service whose batch row count
depends on the data would walk toward the budget.

Discipline — the arena does **no** liveness tracking:

* only :meth:`~WorkspaceArena.release` buffers that cannot escape the
  operation that requested them (inference/no-grad paths, scratch consumed
  before the op returns, a backward closure's own temporaries);
* a buffer that ends up referenced by an autograd closure or returned to the
  caller must simply not be released — leaking a buffer back to NumPy's
  allocator is always safe, double-use is not.

The tape itself is never pooled.  What a taped step used to re-fault every
step was not an allocator threshold to pool around but memory the sweep
kept that nobody read (a ``.grad`` on every node, zero-padded slice
gradients; DESIGN §10 has the numbers); the one open allocator note is the
serve path's fresh multi-row forward intermediates.

``arena()`` returns the calling thread's instance: the main thread's is
the module's ``_ARENA``, and every other thread gets one of its own, so
a buffer is never handed to two threads.  ``stats()`` feeds the benchmark
sidecars (``bytes_served`` vs ``bytes_allocated`` is the reuse win) and
counts the main thread's arena only.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from math import prod

import numpy as np

__all__ = ["WorkspaceArena", "arena"]


class _Flat(np.ndarray):
    """The type of the arena's byte buffers.  It adds nothing: it is the
    mark :meth:`WorkspaceArena.release` knows a handed-out view by, and
    NumPy keeps it exact — a view of a handed-out view has that view as its
    ``base``, not the buffer, because the two types differ."""

    __slots__ = ()


#: Budget for *pooled* (idle) bytes of one arena.  Requests larger than the
#: budget are served but never pooled; when releases push the pool over
#: budget, the smallest idle buffers are dropped (whatever they could
#: serve, a larger one can).
MAX_BYTES = 256 * 2 ** 20


class WorkspaceArena:
    """Pooled flat byte buffers, served by capacity, within
    :data:`MAX_BYTES` of pooled (idle) bytes."""

    def __init__(self):
        self.max_bytes = MAX_BYTES
        # ``(capacity, view)`` ascending by capacity; ``view`` is what the
        # buffer (its ``base``) was last handed out as.  Searched with a
        # 1-tuple, which orders before every entry of its capacity without
        # ever comparing the arrays.
        self._idle: list[tuple[int, np.ndarray]] = []
        self._pooled_bytes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        self.bytes_allocated = 0

    def get(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialized C-contiguous buffer of exactly ``shape``/``dtype``
        — a view of the smallest idle buffer that holds it, of a freshly
        allocated one otherwise."""
        dtype = np.dtype(dtype)
        nbytes = prod(shape) * dtype.itemsize
        idle = self._idle
        at = bisect_left(idle, (nbytes,))
        if at < len(idle):
            capacity, out = idle.pop(at)
            self._pooled_bytes -= capacity
            self.hits += 1
            if out.shape != shape or out.dtype is not dtype:
                out = np.ndarray(shape, dtype, out.base)
        else:
            # Every idle buffer is too small, so the new one supersedes the
            # largest of them: whatever the order of requests, the pool
            # settles at (most requests at once) x (the largest), not at a
            # buffer per size ever seen.
            if idle:
                self._pooled_bytes -= idle.pop()[0]
            out = np.ndarray(shape, dtype, _Flat(nbytes, np.uint8))
            self.misses += 1
            self.bytes_allocated += nbytes
        self.bytes_served += nbytes
        return out

    def release(self, buf: np.ndarray) -> None:
        """Return what :meth:`get` handed out to the pool.  The caller must
        guarantee no live references to ``buf`` remain (see module
        docstring).  Anything else — an array the arena did not allocate, a
        view of one it did — is ignored."""
        base = getattr(buf, "base", None)
        if type(base) is not _Flat:
            return
        capacity = base.nbytes
        if capacity > self.max_bytes:
            return
        idle = self._idle
        # Behind the idle buffers of its capacity: equals are reused oldest
        # first, so in a steady cycle of requests each buffer keeps its role
        # and its remembered view is the one asked for as often as can be.
        idle.insert(bisect_left(idle, (capacity + 1,)), (capacity, buf))
        self._pooled_bytes += capacity
        while self._pooled_bytes > self.max_bytes:
            self._pooled_bytes -= idle.pop(0)[0]

    def clear(self) -> None:
        self._idle.clear()
        self._pooled_bytes = 0

    def reset_stats(self) -> None:
        self.hits = self.misses = 0
        self.bytes_served = self.bytes_allocated = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "bytes_served": self.bytes_served,
                "bytes_allocated": self.bytes_allocated,
                "pooled_bytes": self._pooled_bytes,
                "max_bytes": self.max_bytes}


_ARENA = WorkspaceArena()
_LOCAL = threading.local()


def arena() -> WorkspaceArena:
    """The calling thread's workspace arena (``_ARENA`` on the main
    thread)."""
    try:
        return _LOCAL.arena
    except AttributeError:
        _LOCAL.arena = _ARENA if threading.current_thread() \
            is threading.main_thread() else WorkspaceArena()
        return _LOCAL.arena
