"""A deterministic simulated cluster with metered collectives.

Real SWiPe runs on oneCCL/RCCL over Aurora's X^e-links and Slingshot; the
reproduction executes the *same data movements* between per-rank NumPy
buffers inside one process, and meters every byte by primitive (``p2p`` /
``alltoall`` / ``allreduce`` / ``allgather``) and by locality (intra- vs
inter-node, given a rank→node mapping).  These counters are what the
communication-model tests compare against the paper's analytical message
sizes (``M = b·s·h / SP / WP``), and what the ablation bench reports.
A point-to-point message (a pipeline stage handoff) is one
:meth:`SimCluster.transfer` call; the collectives are built on it.

When :mod:`repro.obs` is enabled, every ``CommStats.add`` also increments
the ``comm.bytes`` / ``comm.ops`` counters (same labels) and every
collective runs inside a tracer span, so :func:`comm_check` can
cross-check the two meters exactly.

**Self-healing** (:mod:`repro.resilience`): when the cluster is built
with a :class:`~repro.resilience.FaultInjector`, every logical transfer
is routed through :meth:`SimCluster.transfer`, which

* raises :class:`~repro.resilience.RankFailure` if a participant is dead
  (fail-stop faults are permanent — the supervisor must re-grid);
* verifies a per-message CRC32 on delivery and re-sends on mismatch or
  drop, with exponential backoff, at most
  :data:`~repro.resilience.retry.MAX_RETRIES` times (transient faults heal
  bit-exactly: the payload is redelivered unmodified or an exception is
  raised — numerics are never silently perturbed);
* books every retry attempt's bytes in :class:`CommStats` (retries cost
  real fabric traffic) and the retry/detection/straggler telemetry in the
  metrics registry (``comm.retries``, ``comm.faults_detected``,
  ``comm.straggler_s``, ``comm.backoff_s``) plus ``resilience``-category
  trace spans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import text_table
from ..obs.profile import count as _count
from ..obs.profile import observe as _observe
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..resilience.checksum import payload_checksum
from ..resilience.faults import CommTimeout, MessageCorruption
from ..resilience.retry import MAX_RETRIES, backoff_s

__all__ = ["CommStats", "SimCluster", "comm_check"]


@dataclass
class CommStats:
    """Byte/operation counters, keyed by (primitive, locality)."""

    bytes: dict = field(default_factory=lambda: defaultdict(int))
    ops: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, primitive: str, locality: str, nbytes: int) -> None:
        self.bytes[(primitive, locality)] += int(nbytes)
        self.ops[(primitive, locality)] += 1
        _count("comm.bytes", "bytes moved by simulated collectives",
               int(nbytes), primitive=primitive, locality=locality)
        _count("comm.ops", "simulated collective operations", 1,
               primitive=primitive, locality=locality)

    def total_bytes(self, primitive: str | None = None) -> int:
        return sum(v for (p, _), v in self.bytes.items()
                   if primitive is None or p == primitive)

    def as_table(self) -> str:
        """Plain-text table: one row per (primitive, locality) plus a
        total row."""
        rows = [("primitive", "locality", "ops", "bytes")]
        for (primitive, locality) in sorted(self.bytes):
            rows.append((primitive, locality,
                         str(self.ops[(primitive, locality)]),
                         f"{self.bytes[(primitive, locality)]:,}"))
        rows.append(("total", "-", str(sum(self.ops.values())),
                     f"{self.total_bytes():,}"))
        return text_table(rows)

class SimCluster:
    """``n_ranks`` simulated ranks, ``ranks_per_node`` per node.

    All collectives take/return *lists indexed by position in the group*
    (``allreduce`` returns its one sum) and an explicit ``group`` of
    global rank ids (so locality can be judged).
    """

    def __init__(self, n_ranks: int, ranks_per_node: int = 1,
                 injector=None):
        if n_ranks % ranks_per_node:
            raise ValueError("n_ranks must be a multiple of ranks_per_node")
        self.n_ranks = n_ranks
        self.ranks_per_node = ranks_per_node
        self.stats = CommStats()
        self.injector = injector
        #: In a kept worker (:class:`repro.rows.KeptWorkers`): the current
        #: request's transfers, which its caller makes after the join.
        self.log: list | None = None

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def _locality(self, a: int, b: int) -> str:
        return "intra" if self.node_of(a) == self.node_of(b) else "inter"

    # -- fault-aware metered transfer ----------------------------------------
    def transfer(self, primitive: str, src: int, dst: int, nbytes: int,
                 payload: np.ndarray | None = None) -> None:
        """Meter one logical ``src → dst`` movement of ``nbytes``.

        With no injector this is exactly ``stats.add``.  With one, the
        transfer is checked against the fault plan: dead participants
        raise :class:`~repro.resilience.RankFailure`; dropped or
        checksum-failing deliveries are re-sent (each attempt books its
        bytes — retries cost fabric traffic) until clean or past
        ``MAX_RETRIES`` re-sends, which raises
        :class:`~repro.resilience.CommTimeout` /
        :class:`~repro.resilience.MessageCorruption`.  A healed transfer
        is bit-exact: the caller's payload is never modified.

        In a kept worker (``log`` set) the transfer is only logged, its
        payload with it under an injector: the worker's caller makes it,
        in rank order, so every booking and fault is the serial step's.
        """
        if self.log is not None:
            self.log.append((primitive, src, dst, nbytes,
                             None if self.injector is None else payload))
            return
        locality = self._locality(src, dst)
        inj = self.injector
        if inj is None:
            self.stats.add(primitive, locality, nbytes)
            return
        inj.raise_if_dead((src, dst), primitive)
        expected = payload_checksum(payload) if payload is not None else None
        attempt = 0
        while True:
            self.stats.add(primitive, locality, nbytes)
            fault, delay_s = inj.transfer_fault(primitive, src, dst, attempt)
            if delay_s:
                self._record_straggler(primitive, src, dst, delay_s)
            if fault == "flip" and expected is not None \
                    and payload_checksum(inj.corrupt(payload)) == expected:
                fault = None  # flip not detectable => delivery counts clean
            if fault is None:
                return
            self._record_detected(primitive, src, dst, fault)
            attempt += 1
            if attempt > MAX_RETRIES:
                why = f"still failing after {MAX_RETRIES} retries"
                _record_event("comm.escalation", subsystem="comm",
                              severity="critical", primitive=primitive,
                              src=src, dst=dst, fault=fault,
                              retries=attempt - 1, reason=why)
                detail = f"{primitive} {src}->{dst} {why}"
                raise (CommTimeout(detail) if fault == "drop"
                       else MessageCorruption(detail))
            _count("comm.retries", "message re-sends after transient faults",
                   1, primitive=primitive)
            _observe("comm.backoff_s", "simulated exponential-backoff waits",
                     backoff_s(attempt), primitive=primitive)

    def _record_straggler(self, primitive: str, src: int, dst: int,
                          delay_s: float) -> None:
        _observe("comm.straggler_s", "simulated late-delivery delays",
                 delay_s, primitive=primitive)
        _record_event("comm.straggler", subsystem="comm",
                      severity="warning", primitive=primitive, src=src,
                      dst=dst, delay_s=delay_s)
        with _span("resilience.straggler", category="resilience",
                   primitive=primitive, src=src, dst=dst, delay_s=delay_s):
            pass

    def _record_detected(self, primitive: str, src: int, dst: int,
                         kind: str) -> None:
        _count("comm.faults_detected", "transient faults caught at delivery",
               1, primitive=primitive, kind=kind)
        _record_event("comm.fault_detected", subsystem="comm",
                      severity="warning", primitive=primitive, src=src,
                      dst=dst, fault=kind)
        with _span("resilience.fault", category="resilience", kind=kind,
                   primitive=primitive, src=src, dst=dst):
            pass

    def _check_group(self, group: list[int], primitive: str) -> None:
        if self.injector is not None:
            self.injector.raise_if_dead(group, primitive)

    # -- collectives ------------------------------------------------------------
    def alltoall(self, group: list[int], chunks: list[list[np.ndarray]]
                 ) -> list[list[np.ndarray]]:
        """``chunks[i][j]`` = payload rank ``group[i]`` sends to ``group[j]``.

        Returns ``out[j][i]`` = what rank ``group[j]`` received from ``i``.
        """
        n = len(group)
        if len(chunks) != n or any(len(row) != n for row in chunks):
            raise ValueError("chunks must be an n x n matrix of arrays")
        self._check_group(group, "alltoall")
        with _span("comm.alltoall", category="comm", group=n):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        self.transfer("alltoall", group[i], group[j],
                                      chunks[i][j].nbytes,
                                      payload=chunks[i][j])
        return [[chunks[i][j].copy() for i in range(n)] for j in range(n)]

    def allreduce(self, group: list[int], arrays: list[np.ndarray]
                  ) -> np.ndarray:
        """Sum-allreduce: the one sum every rank holds (FP64, in group
        order, cast back).  Ring cost: each rank moves 2(n−1)/n of the data.

        Bytes are attributed *per ring hop* — link ``group[i] →
        group[(i+1) % n]`` carries ``2(n−1)/n`` of the payload — so a group
        spanning nodes meters its intra- and inter-node traffic separately
        instead of booking the whole ring at one locality.
        """
        n = len(group)
        if len(arrays) != n:
            raise ValueError("one array per group rank required")
        self._check_group(group, "allreduce")
        result = sum(arrays[1:], arrays[0].astype(np.float64)).astype(
            arrays[0].dtype)
        if n > 1:
            per_hop = int(2 * (n - 1) / n * arrays[0].nbytes)
            with _span("comm.allreduce", category="comm", group=n,
                       nbytes=per_hop * n):
                for i in range(n):
                    self.transfer("allreduce", group[i], group[(i + 1) % n],
                                  per_hop, payload=result)
        return result

    def allgather(self, group: list[int], arrays: list[np.ndarray]
                  ) -> list[list[np.ndarray]]:
        n = len(group)
        self._check_group(group, "allgather")
        with _span("comm.allgather", category="comm", group=n):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        self.transfer("allgather", group[i], group[j],
                                      arrays[i].nbytes, payload=arrays[i])
        return [[a.copy() for a in arrays] for _ in range(n)]


def comm_check(report, stats: CommStats,
               predicted: dict[str, float] | None = None,
               rel_tol: float = 0.05) -> dict:
    """Registry byte counters vs. ``CommStats``; optionally vs. an
    analytical prediction ``{primitive: bytes}`` (e.g. from
    :class:`repro.perf.comm_model.CommModel`).

    A :class:`repro.obs.TraceReport` check: both sides meter the same
    collectives, so the first comparison must agree exactly.
    """
    counter = report.registry.counter("comm.bytes")
    per_key = {}
    for (primitive, locality), expected in sorted(stats.bytes.items()):
        observed = counter.value(primitive=primitive, locality=locality)
        per_key[f"{primitive}/{locality}"] = {
            "registry_bytes": observed, "commstats_bytes": expected,
            "match": observed == expected}
    analytical = None if predicted is None else {}
    lines = []
    for primitive, expected in sorted((predicted or {}).items()):
        observed = stats.total_bytes(primitive)
        err = (abs(observed - expected) / expected
               if expected else float(observed != 0))
        analytical[primitive] = {
            "observed_bytes": observed, "predicted_bytes": expected,
            "rel_error": err, "within_tolerance": err <= rel_tol}
        lines.append(f"  {primitive}: observed {observed:,} B vs predicted "
                     f"{int(expected):,} B (rel err {err:.3f})")
    agrees = (all(r["match"] for r in per_key.values())
              and all(a["within_tolerance"]
                      for a in (analytical or {}).values()))
    lines.insert(0, f"comm bytes: {len(per_key)} (primitive, locality) "
                    f"series vs CommStats | "
                    f"{'OK' if agrees else 'MISMATCH'}")
    return {"check": "comm_bytes",
            "registry_vs_commstats": per_key,
            "analytical": analytical, "agrees": agrees,
            "summary": "\n".join(lines)}
