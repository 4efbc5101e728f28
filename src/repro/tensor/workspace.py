"""A reusable workspace arena for kernel scratch buffers.

The fused hot-path kernels (:mod:`repro.kernels.fused`) need large
intermediate arrays — attention score matrices, SwiGLU hidden activations —
whose lifetime is confined to a single forward call.  Allocating them fresh
each call makes the allocator (and the page-fault handler) part of the hot
path.  The arena pools released buffers by ``(shape, dtype)`` so steady-state
inference reuses the same memory on every step.

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
serve path's 14–18-row forwards.

``arena()`` returns the process-global instance; ``stats()`` feeds the
benchmark sidecars (``bytes_served`` vs ``bytes_allocated`` is the reuse
win).
"""

from __future__ import annotations

import numpy as np

__all__ = ["WorkspaceArena", "arena"]


class WorkspaceArena:
    """Pooled scratch buffers keyed by ``(shape, dtype)``.

    Parameters
    ----------
    max_bytes:
        Budget for *pooled* (idle) bytes.  Requests larger than the budget
        are served but never pooled; when releases push the pool over
        budget, the oldest idle buffers are dropped (FIFO over keys).
    """

    def __init__(self, max_bytes: int = 256 * 2 ** 20):
        self.max_bytes = int(max_bytes)
        self._pool: dict[tuple, list[np.ndarray]] = {}
        self._pooled_bytes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        self.bytes_allocated = 0

    def get(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialized C-contiguous buffer of exactly ``shape``/``dtype``
        — pooled if available, freshly allocated otherwise."""
        # Equal shapes and equivalent dtypes compare and hash equal whatever
        # they are spelled with (list or tuple, NumPy or Python ints, type
        # or dtype instance), so the key needs no element-wise rebuild.
        key = (tuple(shape), np.dtype(dtype))
        bucket = self._pool.get(key)
        if bucket:
            out = bucket.pop()
            self._pooled_bytes -= out.nbytes
            self.hits += 1
        else:
            out = np.empty(*key)
            self.misses += 1
            self.bytes_allocated += out.nbytes
        self.bytes_served += out.nbytes
        return out

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` to the pool.  The caller must guarantee no live
        references to ``buf`` remain (see module docstring)."""
        if not isinstance(buf, np.ndarray) or not buf.flags.owndata:
            return  # views cannot be safely repooled
        if buf.nbytes > self.max_bytes:
            return
        self._pool.setdefault((buf.shape, buf.dtype), []).append(buf)
        self._pooled_bytes += buf.nbytes
        self._shrink()

    def _shrink(self) -> None:
        while self._pooled_bytes > self.max_bytes and self._pool:
            oldest = next(iter(self._pool))
            bucket = self._pool[oldest]
            dropped = bucket.pop(0)
            self._pooled_bytes -= dropped.nbytes
            if not bucket:
                del self._pool[oldest]

    @property
    def pooled_bytes(self) -> int:
        return self._pooled_bytes

    def clear(self) -> None:
        self._pool.clear()
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


def arena() -> WorkspaceArena:
    """The process-global workspace arena."""
    return _ARENA
