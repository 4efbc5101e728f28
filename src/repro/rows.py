"""Row-parallel execution: contiguous runs of independent items at once,
one per usable core, on kept worker processes — a data step's ensemble
member groups and a training step's data-parallel replicas or, in a
one-replica step, its batch rows.  Nothing here starts a thread.

:class:`KeptWorkers` runs groups of items in processes — the caller one
group, one worker each other: :func:`repro.diffusion.sampler.step_sharded`
a data step per group of ensemble members (noise draws, every solver
evaluation, the denoise), the training engine a group of DP replicas (a
taped forward/backward holds the GIL between its small GEMMs: two taped
steps on two threads run ×1.03), or half of a one-replica step's rows, the
worker streaming what the caller's reductions over rows need
(:meth:`KeptWorkers.put`, :meth:`KeptWorkers.take`).  Inside a group a
nested split runs whole: one worker never waits on itself.  A worker is
forked once, at its owner's first split, and kept: each run sends it its
group's bounds and request down a pipe (the weights are shared) and reads
its result back from another, so no run pays a fork's copy-on-write faults
(DESIGN §10).

Every row's arithmetic is the serial path's (a forward's rows do not
depend on how many rows the call has), so a split result is equal to the
unsplit one bit for bit.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings
import weakref
from contextlib import ExitStack
from contextvars import ContextVar
from typing import Callable

from .kernels import _ENABLED as _KERNELS
from .kernels.abft import guards_live
from .obs.profile import flight, get_tracer, health, metrics
from .scoped import scoped
from .tensor.bf16 import _BF16_MATMUL
from .tensor.flops import flops_enabled
from .tensor.tensor import _GRAD_ENABLED

__all__ = ["KeptWorkers"]

#: Cores this process may run on: one group per core, and a 1-core box
#: never splits.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1

#: Set while a group runs, in its caller and in the worker.
_IN_SHARD = ContextVar("rows_in_shard", default=False)

#: The switches that reach a kept worker's arithmetic, sent with each
#: request: grad recording, BF16 matmuls and the kernel layer.  (A GEMM
#: guard, a compute-fault injector or an obs sink keeps a split in one
#: process, :func:`_fork_bounds`.)
_SWITCHES = (_GRAD_ENABLED, _BF16_MATMUL, _KERNELS)

#: The kept workers of every owner in this process.
_KEPT: "weakref.WeakSet[KeptWorkers]" = weakref.WeakSet()


def _close_inherited_pipes() -> None:
    """A forked child closes its copies of the kept workers' pipes, so
    each worker still sees the end of its requests when its owner closes
    them."""
    for kept in list(_KEPT):
        kept._drop()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_pipes)


def _fork_bounds(n: int) -> list[int]:
    """Group boundaries of a forked split of ``n`` items:
    ``min(cores, n)`` contiguous groups, as even as can be, the caller's
    (the first) never the larger.  One group, ``[0, n]``, when there is no
    ``os.fork``, inside a group, while a GEMM guard, a FLOP counter or any
    :mod:`repro.obs` sink is live (a child's spans, bookings, FLOPs and
    guard ordinals would be lost with it), or while any thread other than
    the caller runs (it could hold a lock the child needs)."""
    groups = min(_CORES, n)
    if (groups < 2 or not hasattr(os, "fork") or _IN_SHARD.get()
            or guards_live() or flops_enabled()
            or any(sink() is not None
                   for sink in (get_tracer, metrics, health, flight))
            or any(t is not threading.current_thread()
                   for t in threading.enumerate())):
        return [0, n]
    return [n * i // groups for i in range(groups + 1)]


def _serve(kept: "KeptWorkers", requests, replies, run: Callable) -> None:
    """A kept worker's whole life: per request received on ``requests`` —
    ``(lo, hi, request, switches, warning filters)`` — ``run(lo, hi,
    request)`` under ``_IN_SHARD``, those switches and filters, then one
    reply sent on ``replies``, ``("ok", result, warnings)`` or ``("raise",
    (exc, traceback), warnings)``, after the ``("part", item, [])``
    messages :meth:`KeptWorkers.put` sent during the run.  When its owner
    hangs up ``requests`` (it retired the worker) ``os._exit(0)``: no
    atexit handler, no inherited buffer flushed, no tape freed; status 1
    if a reply could not be sent."""
    status = 1
    try:
        kept._stream = replies
        while True:
            try:
                lo, hi, request, switches, filters = requests.recv()
            except EOFError:
                break
            with ExitStack() as stack:
                for var, value in zip((_IN_SHARD,) + _SWITCHES,
                                      (True, *switches)):
                    stack.enter_context(scoped(var, value))
                caught = stack.enter_context(
                    warnings.catch_warnings(record=True))
                warnings.filters[:] = filters
                try:
                    reply = ("ok", run(lo, hi, request))
                except BaseException as exc:  # noqa: BLE001 — sent home
                    reply = ("raise", (exc, traceback.format_exc()))
            replies.send((*reply, [(w.message, w.category, w.filename,
                                    w.lineno) for w in caught]))
        status = 0
    finally:
        os._exit(status)


class KeptWorkers:
    """The processes that run a split's groups past the first, forked at
    its first split (:func:`_fork_bounds`) and kept: each :meth:`run`
    sends every worker it needs its group's bounds and request and runs
    the first group here.  During a run a worker may also stream items to
    the caller (:meth:`put`, :meth:`take`), which a row split of one
    training step uses.

    Its owner retires them with :meth:`close` — when it is finalised,
    which ``weakref.finalize`` also does at interpreter exit — and
    :meth:`run` retires them itself when it is given another ``run`` or
    the core count changed since the fork, or a group fails; another
    owner's first split retires them too, so a process keeps one owner's
    workers at a time.  A process forked later (a worker of another
    owner) closes its copies of these pipes
    (:func:`_close_inherited_pipes`), so a worker sees the end of its
    requests when its owner closes them."""

    def __init__(self):
        self._bounds: list[int] = []      # of the last split
        self._run: tuple | None = None    # what the workers run (_key)
        self._cores = 0                   # _CORES when they were forked
        self._workers: list = []          # their multiprocessing.Process
        self._requests: list = []         # this end of each worker's pipes
        self._replies: list = []
        #: In a worker: its reply pipe, which :meth:`put` sends on.
        self._stream = None

    @property
    def pids(self) -> list[int]:
        """The workers' process ids, in group order."""
        return [worker.pid for worker in self._workers]

    @property
    def in_worker(self) -> bool:
        """Whether this is a worker's copy, running a group past the
        first (it :meth:`put` s), rather than its caller (which
        :meth:`take` s)."""
        return self._stream is not None

    def run(self, n: int, run: Callable[[int, int, object], object],
            request: Callable[[int, int], object]) -> list:
        """``run(lo, hi, request(lo, hi))`` — items ``lo:hi`` of ``n``
        independent ones — over contiguous groups at once
        (:func:`_fork_bounds`), each under ``_IN_SHARD``, this process the
        first and a kept worker each other; or once over ``[0, n]``, here.
        Returns the groups' results in order.

        A worker runs ``run`` as it was when the worker was forked, on its
        ``request(lo, hi)`` pickled, under the caller's switches
        (``_SWITCHES``) and warning filters at this call; ``run`` must take
        what changes from its request (or a shared mapping made before the
        fork) and return what the caller needs: the rest of what a worker
        changes stays in it.  Warnings a worker records are re-issued here
        in its order.  An exception of a worker (or a
        ``ChildProcessError`` for one that died) is raised once every
        group has finished, the first group's first, and retires the
        workers."""
        bounds = _fork_bounds(n)
        if self._workers and (_key(run) != self._run
                              or _CORES != self._cores):
            self.close()
        if len(bounds) == 2:
            return [run(0, n, request(0, n))]
        try:
            self._fork(len(bounds) - 2, run)
            self._bounds = bounds
            switches = [var.get() for var in _SWITCHES]
            for i, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:])):
                message = pickle.dumps(
                    (lo, hi, request(lo, hi), switches, warnings.filters),
                    pickle.HIGHEST_PROTOCOL)
                try:
                    self._requests[i].send_bytes(message)
                except BrokenPipeError:
                    raise self._died(i) from None
            with scoped(_IN_SHARD, True):
                results = [run(bounds[0], bounds[1],
                               request(bounds[0], bounds[1]))]
            replies = [self._reply(i) for i in range(len(bounds) - 2)]
        except BaseException:
            self.close()
            raise
        for _, _, issued in replies:
            _reissue(issued)
        for i, (kind, value, _) in enumerate(replies):
            if kind != "ok":
                error = self._error(i, kind, value)
                self.close()
                raise error
            results.append(value)
        return results

    def put(self, item) -> None:
        """In a worker, during :meth:`run`: send ``item`` to the caller,
        whose next :meth:`take` returns it."""
        self._stream.send(("part", item, []))

    def take(self):
        """In the caller, during :meth:`run`: the next item the first
        worker :meth:`put` this run.  A worker that raised or died instead
        raises its exception here (a ``ChildProcessError`` for a death)."""
        kind, value, issued = self._reply(0)
        if kind == "part":
            return value
        _reissue(issued)
        raise self._error(0, kind, value)

    def _reply(self, i: int) -> tuple:
        """Worker ``i``'s next message; for a worker that hung up, its
        ``ChildProcessError`` as a ``"raise"`` reply."""
        try:
            return self._replies[i].recv()
        except EOFError:
            return ("raise", (self._died(i), None), [])

    def _error(self, i: int, kind: str, value) -> BaseException:
        """The exception a reply other than the one expected stands for:
        a worker's own, with its traceback noted, or a ``RuntimeError``
        where worker ``i`` is out of step with its caller."""
        if kind != "raise":
            return RuntimeError(
                f"forked worker {self.pids[i]} sent a {kind!r} reply out "
                "of step with its caller")
        exc, where = value
        if where is not None and hasattr(exc, "add_note"):
            exc.add_note(f"raised in a forked worker:\n{where}")
        return exc

    def _fork(self, count: int, run: Callable) -> None:
        """Workers up to ``count``, each to run ``run``."""
        if len(self._workers) >= count:
            return
        import multiprocessing      # here: ≈ 0.75 MB that serving never needs

        for other in list(_KEPT):       # one owner's workers at a time
            if other is not self:
                other.close()
        self._run, self._cores = _key(run), _CORES
        _KEPT.add(self)
        context = multiprocessing.get_context("fork")
        while len(self._workers) < count:
            requests, self_requests = context.Pipe(duplex=False)
            self_replies, replies = context.Pipe(duplex=False)
            # registered first: the child closes these ends
            # (_close_inherited_pipes)
            self._requests.append(self_requests)
            self._replies.append(self_replies)
            # daemon: multiprocessing's exit hook, which may run before
            # the owner's finalizer, would join a non-daemon worker that
            # still waits for requests; it terminates a daemon one.
            worker = context.Process(target=_serve, daemon=True, args=(
                self, requests, replies, run))
            # CPython >= 3.12 warns on a fork while the process has other
            # OS threads.  No Python thread but the caller runs here
            # (_fork_bounds); a BLAS library's own threads may: OpenBLAS
            # stops its before a fork (its pthread_atfork handler), another
            # BLAS need not.
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore",
                        r"This process \(pid=\d+\) is multi-threaded",
                        DeprecationWarning)
                    worker.start()
            finally:
                requests.close()
                replies.close()
            self._workers.append(worker)

    def _died(self, i: int) -> ChildProcessError:
        """Worker ``i``, which hung up: reaped, and how it ended."""
        worker = self._workers[i]
        worker.join()
        code = worker.exitcode
        how = (f"killed by {signal.Signals(-code).name}" if code < 0
               else f"exited with status {code}")
        lo, hi = self._bounds[i + 1], self._bounds[i + 2]
        return ChildProcessError(
            f"forked worker {worker.pid} running items {lo}:{hi} {how}")

    def close(self) -> None:
        """Retire the workers: close their pipes (each worker reads the
        end of its requests and exits) and reap them."""
        workers = self._workers
        self._drop()
        for worker in workers:
            worker.join()

    def _drop(self) -> None:
        """Close this end of the workers' pipes and forget them, unreaped
        (all a forked child does with its copy)."""
        for connection in self._requests + self._replies:
            connection.close()
        self._bounds, self._run, self._workers = [], None, []
        self._requests, self._replies = [], []
        _KEPT.discard(self)


def _key(run: Callable) -> tuple:
    """What tells ``run`` from another: its function and, for a bound
    method, the ``id`` of its owner (not the owner: a worker's owner is
    finalised while its workers live)."""
    return getattr(run, "__func__", run), id(getattr(run, "__self__", None))


def _reissue(issued: list) -> None:
    """Warnings a worker recorded, issued here in its order."""
    for text, category, filename, lineno in issued:
        warnings.warn_explicit(text, category, filename, lineno)
