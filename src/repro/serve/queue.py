"""Priority admission queue with backpressure.

Admission control happens at :meth:`AdmissionQueue.submit`: a request is
either *accepted* (enters the priority heap) or *rejected* with a typed
:class:`~repro.serve.Rejected` — a full queue sheds load at the door
instead of letting latency grow without bound.  Two caps apply: a global
:data:`MAX_QUEUE_DEPTH` and each tier's ``max_queue_depth`` (so a burst of
``high`` requests cannot starve the ``fast`` lane of queue slots).

Ordering is ``(tier priority, arrival order)`` — cheap tiers first, FIFO
within a tier.  Deadlines are enforced at *pop* time: a request that
waited past its tier's ``deadline_s`` is returned as expired (the service
answers it with a :class:`~repro.serve.Timeout`) rather than burning a
model forward on an answer nobody is waiting for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..obs.profile import gauge as _gauge
from ..obs.profile import health as _obs_health
from .api import ForecastRequest, Rejected
from .samplers import TierPolicy, TierRouter

__all__ = ["PendingRequest", "AdmissionQueue"]

#: Global queue-depth cap (per-tier caps live on the tier policies).
MAX_QUEUE_DEPTH = 256


@dataclass(eq=False)
class PendingRequest:
    """An accepted request waiting for a micro-batch slot.

    ``version`` pins the model version the request was routed to at
    admission (canary routing happens *before* the queue, so a version
    swap mid-flight re-labels queued work explicitly via
    :meth:`AdmissionQueue.reassign_version` instead of silently serving
    a different model than the one admitted against).  The service
    stamps ``init_digest`` (content address of the float32 initial
    state, part of every cache key of the request) and ``variables``
    (channel indices of the requested subset) once, at admission.
    """

    request: ForecastRequest
    policy: TierPolicy
    enqueued_s: float
    seq: int
    version: str = ""
    init_digest: str = ""
    variables: list[int] | None = None

    def waited_s(self, now: float) -> float:
        return now - self.enqueued_s

    def expired(self, now: float) -> bool:
        return self.waited_s(now) > self.policy.deadline_s


class AdmissionQueue:
    """Bounded priority queue over :class:`PendingRequest`."""

    def __init__(self, router: TierRouter):
        self.router = router
        self._heap: list[tuple[int, int, PendingRequest]] = []
        self._seq = 0
        self.depths: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def depth(self, tier: str) -> int:
        return self.depths.get(tier, 0)

    def _book_depths(self) -> None:
        for tier, depth in self.depths.items():
            _gauge("serve.queue_depth", "requests waiting per tier", depth,
                   tier=tier)

    def submit(self, request: ForecastRequest,
               now: float, version: str = "") -> PendingRequest:
        """Admit or raise :class:`Rejected` (the caller books the tally)."""
        policy = self.router.route(request.tier)
        if len(self._heap) >= MAX_QUEUE_DEPTH:
            raise Rejected("queue_full",
                           f"global depth cap {MAX_QUEUE_DEPTH}")
        if self.depth(request.tier) >= policy.max_queue_depth:
            raise Rejected("tier_queue_full",
                           f"tier {request.tier!r} cap "
                           f"{policy.max_queue_depth}")
        pending = PendingRequest(request=request, policy=policy,
                                 enqueued_s=now, seq=self._seq,
                                 version=version)
        heapq.heappush(self._heap, (policy.priority, self._seq, pending))
        self._seq += 1
        self.depths[request.tier] = self.depth(request.tier) + 1
        self._book_depths()
        monitor = _obs_health()
        if monitor is not None:
            monitor.observe_queue_depth(request.tier,
                                        self.depth(request.tier),
                                        policy.max_queue_depth)
        return pending

    def requeue(self, pending: PendingRequest) -> None:
        """Return a popped-but-unserved request to its exact heap position
        (original priority, original arrival order — no cap re-check, the
        slot was never released to anyone else this instant)."""
        heapq.heappush(self._heap,
                       (pending.policy.priority, pending.seq, pending))
        self.depths[pending.request.tier] = \
            self.depth(pending.request.tier) + 1
        self._book_depths()

    def _remove(self, pending: PendingRequest) -> None:
        self.depths[pending.request.tier] -= 1
        self._book_depths()

    def pop(self) -> PendingRequest | None:
        """Highest-priority pending request (no deadline check)."""
        if not self._heap:
            return None
        _, _, pending = heapq.heappop(self._heap)
        self._remove(pending)
        return pending

    def pop_live(self, now: float
                 ) -> tuple[PendingRequest | None, list[PendingRequest]]:
        """Next request still within its deadline, plus any expired ones
        drained on the way."""
        expired: list[PendingRequest] = []
        while self._heap:
            pending = self.pop()
            if pending.expired(now):
                expired.append(pending)
                continue
            return pending, expired
        return None, expired

    def pop_tier(self, tier: str,
                 version: str | None = None) -> PendingRequest | None:
        """Next pending request of ``tier`` (and, when given, ``version``)
        if it sits at the head of its priority class (FIFO within the
        tier is preserved; a batch never mixes model versions)."""
        if not self._heap:
            return None
        head = self._heap[0][2]
        if head.request.tier != tier:
            return None
        if version is not None and head.version != version:
            return None
        return self.pop()

    def reassign_version(self, src: str, dst: str) -> int:
        """Re-route every queued request pinned to version ``src`` onto
        ``dst`` (heap order is untouched — only the label changes).

        This is the zero-loss half of a rollback: when a canary version
        is withdrawn, its queued-but-unserved requests are explicitly
        handed to the restored incumbent instead of being dropped or
        left pointing at a binding that no longer exists.
        """
        moved = 0
        for _, _, pending in self._heap:
            if pending.version == src:
                pending.version = dst
                moved += 1
        return moved
