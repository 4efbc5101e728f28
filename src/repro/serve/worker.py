"""Replica worker pool under the :mod:`repro.resilience` fault machinery.

``N`` replica workers model serving capacity the way the training stack
models compute ranks: each worker is a logical rank with a virtual
``free_at`` horizon; a micro-batch is dispatched to the earliest-free
live worker, and the *measured wall time* of its stacked forwards becomes
the batch's virtual service duration.  With a :class:`SimCluster`
attached, batch inputs are shipped to the worker over the metered fabric
(``p2p`` transfers), which routes them through the fault injector: drops
and bit flips heal by checksum + retry exactly as training collectives
do, and a **fail-stop** marks the worker dead — capacity degrades to the
survivors and the batch fails over instead of dropping its requests.
Workers can also be SWiPe-sharded in spirit: pass a cluster whose ranks
carry a wider layout and the pool simply occupies one rank per replica.

Every failover and dead worker is booked through :mod:`repro.obs`
(``serve.worker_failovers``, ``resilience.dead_ranks``) so a serve chaos
run reconciles under :func:`repro.resilience.resilience_check` just
like a training chaos run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..resilience import ClusterFailure, RankFailure
from ..resilience.faults import count_dead_ranks
from ..resilience.retry import MAX_RETRIES

__all__ = ["WorkerState", "ServeWorkerPool"]


@dataclass(eq=False)
class WorkerState:
    """One replica worker: a logical rank plus its virtual busy horizon.

    ``loaded_version`` tracks which model version's weights are resident
    on the worker; a dispatch for a different version hot-swaps them
    first (booked as ``serve.weight_swaps`` / ``serve.weight_swap_bytes``
    — the cost a rolling canary deployment pays that steady-state serving
    does not).
    """

    rank: int
    free_at: float = 0.0
    alive: bool = True
    batches_served: int = 0
    loaded_version: str = ""
    weight_swaps: int = 0


class ServeWorkerPool:
    """Dispatches micro-batch executions across replica workers.

    Parameters
    ----------
    n_workers:
        Replica count (serving capacity).
    cluster:
        Optional :class:`~repro.parallel.SimCluster` whose first
        ``n_workers`` ranks host the replicas; rank ``n_workers`` is the
        dispatcher.  Requires ``n_ranks >= n_workers + 1``.  Batch inputs
        are shipped over its metered, fault-aware fabric.
    injector:
        Optional :class:`~repro.resilience.FaultInjector`; defaults to the
        cluster's.  ``injector.advance(k)`` is called once per dispatch,
        so fail-stop events scheduled at "step" ``k`` kill a worker before
        its ``k``-th batch.  One batch fails over at most ``MAX_RETRIES``
        times before the pool escalates
        :class:`~repro.resilience.ClusterFailure`.
    duration_fn:
        Optional ``result -> seconds`` mapping a finished batch result to
        its virtual service duration.  The default (``None``) charges the
        measured wall time of the stacked forwards — realistic, but it
        makes virtual completion times machine- and load-dependent.
        Deterministic simulation runs pass a model (e.g. seconds per
        stacked forward) so the whole event loop is bit-replayable.
    """

    def __init__(self, n_workers: int = 1, cluster=None, injector=None,
                 duration_fn=None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if cluster is not None and cluster.n_ranks < n_workers + 1:
            raise ValueError("cluster needs n_workers + 1 ranks "
                             "(replicas + dispatcher)")
        self.workers = [WorkerState(rank=r) for r in range(n_workers)]
        self.cluster = cluster
        self.injector = injector if injector is not None else (
            cluster.injector if cluster is not None else None)
        self.duration_fn = duration_fn
        self.dispatcher_rank = n_workers
        self.n_dispatches = 0

    def live_workers(self) -> list[WorkerState]:
        return [w for w in self.workers if w.alive]

    def earliest_free(self) -> float:
        """Virtual time the next live worker frees up (inf if none live)."""
        live = self.live_workers()
        if not live:
            return float("inf")
        return min(w.free_at for w in live)

    def _mark_dead(self, worker: WorkerState, primitive: str) -> None:
        worker.alive = False
        count_dead_ranks(1, scope="serve")
        _gauge("serve.live_workers", "replica workers still serving",
               len(self.live_workers()))
        _record_event("serve.worker_dead", subsystem="serve",
                      severity="critical", rank=worker.rank,
                      primitive=primitive,
                      live_workers=len(self.live_workers()))
        with _span("resilience.worker_failstop", category="resilience",
                   rank=worker.rank, primitive=primitive):
            pass

    def _ship_inputs(self, worker: WorkerState, payload: np.ndarray | None,
                     nbytes: int) -> None:
        """Move the batch input to the worker over the metered fabric
        (fault-aware: transient faults heal, dead ranks raise)."""
        if self.cluster is None or nbytes <= 0:
            if self.injector is not None:
                self.injector.raise_if_dead([worker.rank], "serve")
            return
        self.cluster.transfer("p2p", self.dispatcher_rank, worker.rank,
                              nbytes, payload=payload)

    def _swap_weights(self, worker: WorkerState, version: str,
                      weights_nbytes: int) -> None:
        """Hot-swap the worker onto ``version``'s weights if a different
        version (or none) is resident.  The swap bytes ride the same
        metered fabric as batch inputs, so a rolling deployment's weight
        traffic shows up in the comm ledger like any other transfer."""
        if not version or worker.loaded_version == version:
            return
        previous = worker.loaded_version
        if self.cluster is not None and weights_nbytes > 0:
            self.cluster.transfer("p2p", self.dispatcher_rank, worker.rank,
                                  weights_nbytes)
        worker.loaded_version = version
        worker.weight_swaps += 1
        _count("serve.weight_swaps", "model-version hot swaps on workers",
               1, version=version)
        _count("serve.weight_swap_bytes",
               "weight bytes shipped for hot swaps", weights_nbytes,
               version=version)
        _record_event("serve.weight_swap", subsystem="serve",
                      rank=worker.rank, version=version,
                      previous=previous, nbytes=weights_nbytes)

    def dispatch(self, now: float, execute: Callable[[], object],
                 payload: np.ndarray | None = None,
                 exclude: int | None = None, version: str = "",
                 weights_nbytes: int = 0
                 ) -> tuple[WorkerState, float, object]:
        """Run ``execute`` on the earliest-free live worker.

        Returns ``(worker, end_s, result)`` where ``end_s`` is the virtual
        completion time: ``max(now, worker.free_at)`` plus the measured
        wall duration of the stacked forwards.  A dead worker fails over
        to the next live one (at most ``MAX_RETRIES`` times); transient
        fabric faults that exhaust their retries propagate as the typed
        resilience errors.  ``exclude`` steers the batch away from one
        rank — a guardrail re-run must land on a *different* worker so a
        sticky-faulty replica can't re-serve its own corruption — unless
        that rank is the only live capacity left.  ``version`` names the
        model version the batch needs; a worker holding different weights
        hot-swaps (see :meth:`_swap_weights`) before serving.
        """
        if self.injector is not None:
            self.injector.advance(self.n_dispatches)
        self.n_dispatches += 1
        nbytes = int(payload.nbytes) if payload is not None else 0
        attempts = 0
        while True:
            live = self.live_workers()
            if not live:
                raise ClusterFailure("no live serve workers")
            candidates = [w for w in live if w.rank != exclude] or live
            worker = min(candidates, key=lambda w: (w.free_at, w.rank))
            try:
                self._ship_inputs(worker, payload, nbytes)
                self._swap_weights(worker, version, weights_nbytes)
            except RankFailure:
                self._mark_dead(worker, "serve")
                attempts += 1
                if attempts > MAX_RETRIES:
                    raise ClusterFailure(
                        f"batch failed over {attempts} times") from None
                _count("serve.worker_failovers",
                       "batches re-dispatched after a worker fail-stop")
                continue
            start = max(now, worker.free_at)
            wall0 = time.perf_counter()
            with _span("serve.forward", category="serve",
                       worker=worker.rank):
                result = execute()
            if self.duration_fn is not None:
                duration = float(self.duration_fn(result))
            else:
                duration = time.perf_counter() - wall0
            end = start + duration
            worker.free_at = end
            worker.batches_served += 1
            return worker, end, result

    def stats(self) -> dict:
        return {
            "n_workers": len(self.workers),
            "live": len(self.live_workers()),
            "dispatches": self.n_dispatches,
            "per_worker": [{"rank": w.rank, "alive": w.alive,
                            "batches": w.batches_served,
                            "busy_until_s": w.free_at,
                            "loaded_version": w.loaded_version,
                            "weight_swaps": w.weight_swaps}
                           for w in self.workers],
        }
