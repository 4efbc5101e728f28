"""Runtime floating-point-operation accounting.

The paper (Section VI-D) determines sustained/peak FLOPS with an *analytical*
model of the transformer.  To validate that model we instrument the autograd
engine: every matmul (the compute-dominant operation, exactly as the paper
assumes) reports its operation count to every :class:`FlopCounter` active
in the calling thread — the counter stack is per thread.  A row-shard
worker of :mod:`repro.model.aeris` counts into a counter of its own, which
the caller books into its counters after the join.  Tests then check the
analytical model in :mod:`repro.perf.flops` against counts measured on a
live tiny model.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["FlopCounter", "count_flops", "add_flops", "flops_enabled"]

_state = threading.local()


def _stack() -> list["FlopCounter"]:
    if not hasattr(_state, "stack"):
        _state.stack = []
    return _state.stack


class FlopCounter:
    """Accumulates floating point operations, split by phase.

    Attributes
    ----------
    forward:
        FLOPs executed while no backward pass is running.
    backward:
        FLOPs executed inside ``Tensor.backward``.
    """

    def __init__(self) -> None:
        self.forward = 0
        self.backward = 0
        self.in_backward = False

    @property
    def total(self) -> int:
        return self.forward + self.backward

    def add(self, n: int) -> None:
        if self.in_backward:
            self.backward += int(n)
        else:
            self.forward += int(n)

def flops_enabled() -> bool:
    """True when at least one counter is active."""
    return bool(_stack())


def add_flops(n: int) -> None:
    """Credit ``n`` FLOPs to every active counter."""
    for counter in _stack():
        counter.add(n)


@contextmanager
def count_flops(counter: FlopCounter | None = None):
    """Context manager activating FLOP accounting.

    Yields the counter so callers can inspect ``counter.forward`` /
    ``counter.backward`` afterwards::

        with count_flops() as fc:
            loss = model(x).sum()
            loss.backward()
        print(fc.forward, fc.backward)
    """
    counter = counter if counter is not None else FlopCounter()
    _stack().append(counter)
    try:
        yield counter
    finally:
        _stack().remove(counter)


@contextmanager
def backward_phase():
    """Mark active counters as being inside a backward pass."""
    stack = _stack()
    previous = [c.in_backward for c in stack]
    for c in stack:
        c.in_backward = True
    try:
        yield
    finally:
        for c, p in zip(stack, previous):
            c.in_backward = p
