"""Process switches — grad recording, BF16 matmuls, the kernel layer, the
ABFT guard, the compute-fault injector, the obs sinks — are
:class:`contextvars.ContextVar` s, set for a block by :func:`scoped`.  A
thread reads its own: a plain thread starts at the defaults.  A kept
worker process (:mod:`repro.rows`) is sent its caller's grad, BF16 and
kernel switches with each request.  The workspace arena and FLOP-counter
stack stay on ``threading.local``: a thread that inherited them would
share one arena, or race on one counter, with its starter.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["scoped"]


@contextmanager
def scoped(var: ContextVar, value):
    """Set ``var`` to ``value`` for the block (yielding it), then restore
    whatever the calling context held before."""
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)
