"""Row-parallel execution: contiguous runs of independent items at once,
one per usable core, on kept worker processes — a data step's ensemble
member groups, a training step's data-parallel replicas or, in a
one-replica step, its batch rows, and the rows of a no-grad forward.
Nothing here starts a thread.

:data:`WORKERS`, the one set of kept workers of a process, runs groups of
items in processes — the caller one group, one worker each other:
:func:`repro.diffusion.sampler.step_sharded` a data step per group of
ensemble members (noise draws, every solver evaluation, the denoise), the
training engine a group of DP replicas (a taped forward/backward holds the
GIL between its small GEMMs: two taped steps on two threads run ×1.03), or
half of a one-replica step's rows, the worker streaming what the caller's
reductions over rows need (:meth:`KeptWorkers.put`,
:meth:`KeptWorkers.take`), and :meth:`repro.model.Aeris.forward` a group of
a no-grad forward's rows.  Inside a group a nested split runs whole: one
worker never waits on itself.

A split names its owner — the stepper, engine or model whose method runs
the groups — which :func:`enter` has entered in the owner registry
(:data:`_OWNERS`) with its weights' seat in a shared mapping, and the
method; a worker resolves both in the snapshot it was forked with.  The
workers are forked once and kept for every owner entered before the fork:
each run sends a worker its group's bounds and request down a pipe (the
weights are shared) and reads its result back from another, so no run pays
a fork's copy-on-write faults (DESIGN §10).  They re-fork only for an owner
entered since (or entered anew), when the core count changed, or after a
group failed.

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

__all__ = ["KeptWorkers", "WORKERS", "enter"]

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

#: Every owner a split has named, by ``id``: a weak reference to it, the
#: values of the fields it was entered with, and its weights' seat in a
#: shared mapping (:class:`repro.nn.optim.FlatParams`, what a worker reads
#: them from).  An owner's entry goes with it.
_OWNERS: dict[int, tuple[weakref.ref, tuple, object]] = {}


def enter(owner, seat: Callable[[], object], fields: tuple) -> None:
    """Enter ``owner`` in the registry before a split names it, or check
    its entry: its weights seated in a shared mapping — ``seat()``, a
    :class:`~repro.nn.optim.FlatParams`, made at its entry — and arrays
    rebound since copied back in.  An owner not entered, or whose
    ``fields`` are not the values it was entered with (a stepper's
    ``stepper.model = …``), gets a new entry, which no kept worker was
    forked with: its next split re-forks them."""
    key = id(owner)
    entry = _OWNERS.get(key)
    if (entry is None or entry[0]() is not owner
            or len(entry[1]) != len(fields)
            or any(a is not b for a, b in zip(entry[1], fields))):
        entry = _OWNERS[key] = (
            weakref.ref(owner, lambda _, key=key: _OWNERS.pop(key, None)),
            fields, seat())
    entry[2].check()


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


def _serve(kept: "KeptWorkers", requests, replies) -> None:
    """A kept worker's whole life: per request received on ``requests`` —
    ``(lo, hi, request, owner id, method, switches, warning filters)`` —
    ``method(owner, lo, hi, request)`` under ``_IN_SHARD``, those switches
    and filters, the owner resolved in the registry this worker was forked
    with, then one reply sent on ``replies``, ``("ok", result, warnings)``
    or ``("raise", (exc, traceback), warnings)``, after the ``("part",
    item, [])`` messages :meth:`KeptWorkers.put` sent during the run.  When
    the caller hangs up ``requests`` (it retired the worker)
    ``os._exit(0)``: no atexit handler, no inherited buffer flushed, no
    tape freed; status 1 if a reply could not be sent."""
    status = 1
    try:
        kept._stream = replies
        while True:
            try:
                lo, hi, request, key, method, switches, filters = \
                    requests.recv()
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
                    reply = ("ok", method(_OWNERS[key][0](), lo, hi,
                                          request))
                except BaseException as exc:  # noqa: BLE001 — sent home
                    reply = ("raise", (exc, traceback.format_exc()))
            replies.send((*reply, [(w.message, w.category, w.filename,
                                    w.lineno) for w in caught]))
        status = 0
    finally:
        os._exit(status)


class KeptWorkers:
    """The processes that run a split's groups past the first, forked at
    the first split (:func:`_fork_bounds`) and kept: each :meth:`run`
    sends every worker it needs its group's bounds and request and runs
    the first group here.  During a run a worker may also stream items to
    the caller (:meth:`put`, :meth:`take`), which a row split of one
    training step uses.  A process has one set, :data:`WORKERS`.

    :meth:`run` retires the workers (:meth:`close`) when it names an owner
    they were not forked with, when the core count changed since the fork
    and when a group fails; the next split forks them anew.  They are
    daemon processes, so they end with the interpreter, and a worker whose
    caller is gone sees the end of its requests.  A process forked later
    (another worker) closes its copies of these pipes
    (:func:`_close_inherited_pipes`), so a worker sees the end of its
    requests when they are closed here."""

    def __init__(self):
        self._bounds: list[int] = []      # of the last split
        #: The owners the workers were forked with: the weak reference of
        #: each one's entry in ``_OWNERS`` then.
        self._owners: dict[int, weakref.ref] = {}
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

    def run(self, owner, method: Callable, n: int,
            request: Callable[[int, int], object]) -> list:
        """``method(owner, lo, hi, request(lo, hi))`` — items ``lo:hi`` of
        ``n`` independent ones — over contiguous groups at once
        (:func:`_fork_bounds`), each under ``_IN_SHARD``, this process the
        first and a kept worker each other; or once over ``[0, n]``, here.
        Returns the groups' results in order.  ``owner`` is entered
        (:func:`enter`) and ``method`` is a function of its module (or
        class), which a worker finds by name.

        A worker runs ``method`` on ``owner`` as they were when the worker
        was forked, on its ``request(lo, hi)`` pickled, under the caller's
        switches (``_SWITCHES``) and warning filters at this call;
        ``method`` must take what changes from its request (or the shared
        mapping) and return what the caller needs: the rest of what a
        worker changes stays in it.  Warnings a worker records are
        re-issued here in its order.  An exception of a worker (or a
        ``ChildProcessError`` for one that died) is raised once every
        group has finished, the first group's first, and retires the
        workers."""
        bounds = _fork_bounds(n)
        if self._workers and _CORES != self._cores:
            self.close()
        if len(bounds) == 2:
            return [method(owner, 0, n, request(0, n))]
        key = id(owner)
        if self._workers and self._owners.get(key) is not _OWNERS[key][0]:
            self.close()
        try:
            self._fork(len(bounds) - 2)
            self._bounds = bounds
            switches = [var.get() for var in _SWITCHES]
            for i, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:])):
                message = pickle.dumps(
                    (lo, hi, request(lo, hi), key, method, switches,
                     warnings.filters), pickle.HIGHEST_PROTOCOL)
                try:
                    self._requests[i].send_bytes(message)
                except BrokenPipeError:
                    raise self._died(i) from None
            with scoped(_IN_SHARD, True):
                results = [method(owner, bounds[0], bounds[1],
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

    def _fork(self, count: int) -> None:
        """Workers up to ``count``, each knowing every owner entered now."""
        if len(self._workers) >= count:
            return
        import multiprocessing      # here: ≈ 0.75 MB that serving never needs

        if not self._workers:
            self._owners = {key: entry[0] for key, entry in _OWNERS.items()}
            self._cores = _CORES
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
                self, requests, replies))
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
        self._bounds, self._owners, self._workers = [], {}, []
        self._requests, self._replies = [], []


#: This process's kept workers, shared by every owner.
WORKERS = KeptWorkers()


def _close_inherited_pipes() -> None:
    """A forked child closes its copies of the kept workers' pipes, so
    each worker still sees the end of its requests when they are closed
    in the caller."""
    WORKERS._drop()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_pipes)


def _reissue(issued: list) -> None:
    """Warnings a worker recorded, issued here in its order."""
    for text, category, filename, lineno in issued:
        warnings.warn_explicit(text, category, filename, lineno)
