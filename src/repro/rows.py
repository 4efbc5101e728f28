"""Row-parallel execution: contiguous runs of independent batch rows at
once, one per usable core — on threads for tape-free inference, in forked
processes for a training step's data-parallel replicas.

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

:func:`run_forked` is the training step's split: a taped forward/backward
holds the GIL between its small GEMMs (two taped steps on two threads run
×1.03), so the DP replicas of a SWiPe step run in processes instead — the
caller one group of replicas, one forked child each other group, each
child handing its result back through a pipe (DESIGN §10).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from contextvars import ContextVar, copy_context
from typing import Callable

import numpy as np

from .kernels import _tape_free
from .kernels.abft import guards_live
from .obs.profile import flight, get_tracer, health, metrics
from .scoped import scoped
from .tensor.flops import add_flops, count_flops, flops_enabled

__all__ = ["run_row_shards", "run_forked"]

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
_POOL_PREFIX = "aeris-rows"

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
                                       thread_name_prefix=_POOL_PREFIX)
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


def _fork_bounds(n: int) -> list[int]:
    """Group boundaries of a forked split of ``n`` items:
    ``min(cores, n)`` contiguous groups, as even as can be, the caller's
    (the first) never the larger.  One group, ``[0, n]``, when there is no
    ``os.fork``, inside a row shard, while a GEMM guard, a FLOP counter or
    any :mod:`repro.obs` sink is live (a child's spans, bookings, FLOPs and
    guard ordinals would be lost with it), or while a thread other than
    the caller and idle row-pool workers runs (it could hold a lock the
    child needs; an idle pool worker holds none, and no pool task is in
    flight: the only submitter is a caller outside a shard, and it is us)."""
    groups = min(_CORES, n)
    if (groups < 2 or not hasattr(os, "fork") or _IN_SHARD.get()
            or guards_live() or flops_enabled()
            or any(sink() is not None
                   for sink in (get_tracer, metrics, health, flight))
            or any(t is not threading.current_thread()
                   and not t.name.startswith(_POOL_PREFIX)
                   for t in threading.enumerate())):
        return [0, n]
    return [n * i // groups for i in range(groups + 1)]


def _child(write: int, run: Callable[[int, int], object], lo: int,
           hi: int) -> None:
    """A forked child's whole life: ``run(lo, hi)`` under the inherited
    warning filters, ``(("ok", result) | ("raise", exc, traceback),
    warnings)`` pickled down ``write``, then ``os._exit`` (no atexit
    handler, no inherited buffer flushed, no tape freed); status 1 if
    that could not be sent."""
    status = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = ("ok", run(lo, hi))
            except BaseException as exc:  # noqa: BLE001 — sent to the caller
                outcome = ("raise", exc, traceback.format_exc())
        data = pickle.dumps(
            (outcome, [(w.message, w.category, w.filename, w.lineno)
                       for w in caught]), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _join(pid: int, read: int) -> tuple[bytes, int]:
    """What a child sent down ``read`` and its wait status, once it has
    exited."""
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    return data, os.waitpid(pid, 0)[1]


def _outcome(data: bytes, status: int, pid: int, lo: int, hi: int):
    """A child's ``(outcome, warnings)``; one that sent none died, and
    its outcome is a ``ChildProcessError`` saying how."""
    if data:
        return pickle.loads(data)
    how = (f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
           if os.WIFSIGNALED(status)
           else f"exited with status {os.waitstatus_to_exitcode(status)}")
    return ("raise", ChildProcessError(
        f"forked child {pid} running items {lo}:{hi} {how}"), None), []


def run_forked(n: int, run: Callable[[int, int], object]) -> list:
    """``run(lo, hi)`` — items ``lo:hi`` of ``n`` independent ones — over
    contiguous groups at once (:func:`_fork_bounds`), or once over
    ``[0, n]``: the caller runs the first group, one forked child each
    other.  Returns the groups' results in order.

    A child inherits everything ``run`` reads copy-on-write and hands back
    only its pickled result, so ``run`` must return what the caller needs
    of the child's work; whatever else the child changes is lost with it.
    Warnings a child records are re-issued here in its order.  Every child
    is reaped, also when the caller's group raises; an exception of a child
    (or a ``ChildProcessError`` for one that died) is raised once every
    child has been joined, the first group's first."""
    bounds = _fork_bounds(n)
    if len(bounds) == 2:
        return [run(0, n)]
    children: list[tuple[int, int, int, int]] = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            # CPython >= 3.12 warns on a fork while other threads exist.
            # Here they are idle row-pool workers (_fork_bounds): blocked
            # on their work queue, holding nothing the child takes, and
            # forgotten by the child (_forget_pool).  OpenBLAS stops its
            # own threads before a fork (its pthread_atfork handler).
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore",
                        r"This process \(pid=\d+\) is multi-threaded",
                        DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                for _, earlier, _, _ in children:
                    os.close(earlier)
                _child(write, run, lo, hi)
            os.close(write)
            children.append((pid, read, lo, hi))
        results = [run(bounds[0], bounds[1])]
    finally:
        joined = [_join(pid, read) for pid, read, _, _ in children]
    outcomes = [_outcome(data, status, pid, lo, hi) for (data, status),
                (pid, _, lo, hi) in zip(joined, children)]
    for outcome, issued in outcomes:
        for message, category, filename, lineno in issued:
            warnings.warn_explicit(message, category, filename, lineno)
    for outcome, _ in outcomes:
        if outcome[0] == "raise":
            exc, where = outcome[1], outcome[2]
            if where is not None and hasattr(exc, "add_note"):
                exc.add_note(f"raised in a forked child:\n{where}")
            raise exc
        results.append(outcome[1])
    return results
