"""Row-parallel execution: contiguous runs of independent batch rows at
once, one per usable core.

:func:`run_row_shards` is called at the outermost call whose rows are
independent, so a split is made once and each shard does as much as it
can alone.  It has two callers: :func:`repro.diffusion.sampler.step_sharded`
runs a whole data step per group of ensemble members (noise draws, every
solver evaluation, the denoise), and ``Aeris._swin`` runs the Swin layers
of a direct tape-free forward (a validation batch, a warm-up forward).
Inside a shard a nested call runs whole, so a forward inside a member
group submits nothing: one pool worker never waits on itself.

Every row's arithmetic is the serial path's, so a split result is equal to
the unsplit one bit for bit.  NumPy drops the GIL in the ufunc loops and
GEMMs that hold the time.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from contextvars import ContextVar, copy_context
from typing import Callable

import numpy as np

from .kernels import _tape_free
from .kernels.abft import guards_live
from .scoped import scoped
from .tensor.flops import add_flops, count_flops, flops_enabled

__all__ = ["run_row_shards"]

#: Fewest batch rows a shard is given.  Measured (DESIGN §10), two shards
#: lose at 2 rows (×0.81), gain from 4, and gain ×1.4–1.8 from 8; at 4 the
#: 1–4-row forwards of a lightly loaded service stay on one core.
_MIN_SHARD_ROWS = 4

#: Cores this process may run on: one shard per core, and a 1-core box
#: never splits.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1

#: The shard workers, started by the first split.
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()

#: Set while a shard runs, in its caller's thread and in the worker.
_IN_SHARD = ContextVar("rows_in_shard", default=False)


def _row_bounds(rows: int) -> list[int]:
    """Shard boundaries of a split of ``rows`` rows:
    ``min(cores, rows // _MIN_SHARD_ROWS)`` contiguous shards, as even as
    can be, the calling thread's (the first) never the larger.  One shard,
    ``[0, rows]``, inside a shard, when a tape is recorded, or when a GEMM
    guard is live: an ABFT check or a compute fault injector addresses
    guarded GEMMs by their order in the step."""
    shards = min(_CORES, rows // _MIN_SHARD_ROWS)
    if shards < 2 or _IN_SHARD.get() or not _tape_free() or guards_live():
        return [0, rows]
    return [rows * i // shards for i in range(shards + 1)]


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max(1, _CORES - 1),
                                       thread_name_prefix="aeris-rows")
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it starts a pool of
    its own (a task handed to the inherited one would never run)."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_row_shards(rows: int,
                   run: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """``run(lo, hi)`` — rows ``lo:hi`` of a result — over contiguous
    shards of ``rows`` rows at once (:func:`_row_bounds`), or once over
    ``[0, rows]``: the calling thread runs the first shard, the pool the
    rest.  Returns the shards' results in row order, concatenated (one
    shard's as it is).

    Each shard runs whole, under ``_IN_SHARD``, in a copy of the caller's
    context, so under the caller's switches (:mod:`repro.scoped`).  FLOPs a
    worker executes are booked to the caller's active counters after the
    join (a thread books to its own), and an exception of any shard is
    raised once every shard has finished."""
    bounds = _row_bounds(rows)
    if len(bounds) == 2:
        return run(0, rows)
    counted = flops_enabled()

    def worker(lo: int, hi: int) -> tuple[np.ndarray, int]:
        with scoped(_IN_SHARD, True), \
                count_flops() if counted else nullcontext() as counter:
            part = run(lo, hi)
        return part, counter.forward if counted else 0

    workers = [_pool().submit(copy_context().run, worker, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        with scoped(_IN_SHARD, True):
            parts = [run(bounds[0], bounds[1])]
    finally:
        wait(workers)
    flops = 0
    for w in workers:
        part, booked = w.result()
        parts.append(part)
        flops += booked
    if flops:
        add_flops(flops)
    return np.concatenate(parts)
