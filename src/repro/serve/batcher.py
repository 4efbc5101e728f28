"""Dynamic micro-batching: coalesce compatible requests into one stacked
model forward per solver evaluation and member group.

The model accepts ``(B, H, W, C)`` and every conditioning input (previous
state, forcings, diffusion time) is per-row, so *any* two requests at the
same tier are compatible — different initial conditions, different leads,
different forcing calendars all batch together.  A micro-batch therefore
groups the head-of-queue request with further same-tier requests (FIFO)
until the member budget (``max_members``) or request budget
(``max_requests``) is hit.  One 8-member request then costs one forward
per solver evaluation and group instead of eight (one group on one core,
two of four rows on two); eight coalesced 1-member requests cost the same.

Batches never mix tiers: the tier fixes the solver schedule (and which
network runs), which must be uniform across the stack.

:func:`execute_batch` runs an assembled batch to completion; it is the
one place that speaks the cache's key format.  That key *is* the identity
of a member-state (weights | init digest | member seed | solver | start
index | lead), so it also says when two tasks of a batch are about to
compute the same thing — products of one forecast cycle asking for
overlapping members of the same analysis.  Each stepping round is therefore
**single flight on the content address**: the active tasks are grouped by
the key of the state they compute next, one row per distinct key is
stepped, and its result (and the leader's generator state afterwards: a
follower may outlive its leader) goes to every task of the group and is
``put`` once.  This is exact because a row's result does not depend on its
batch (the batched-rollout and ``serve_*`` oracles assert it).  Budgets,
``members`` and per-response cache accounting stay in *requested* member
rows; forwards per batch are unchanged (a flight always has a leader).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion.sampler import member_seed, step_sharded
from ..obs.profile import count as _count
from ..obs.profile import observe as _observe
from ..obs.profile import span as _span
from .cache import ForecastCache, forecast_key
from .queue import AdmissionQueue, PendingRequest
from .samplers import TierPolicy

__all__ = ["BatcherConfig", "MemberTask", "MicroBatch", "MicroBatcher",
           "execute_batch"]


@dataclass(frozen=True)
class BatcherConfig:
    """Micro-batch budgets: member rows per stacked forward and requests
    coalesced per batch."""

    max_members: int = 32
    max_requests: int = 8

    def __post_init__(self):
        if self.max_members < 1 or self.max_requests < 1:
            raise ValueError("batch budgets must be >= 1")


@dataclass(eq=False)
class MemberTask:
    """One ensemble member's work inside a micro-batch: its current state,
    its seeded generator, how far it has advanced (``lead``), and the
    trajectory accumulated so far (prefix possibly restored from cache)."""

    pending: PendingRequest
    member_seed: int
    state: np.ndarray
    rng: np.random.Generator
    lead: int
    target: int
    trajectory: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def done(self) -> bool:
        return self.lead >= self.target


@dataclass(eq=False)
class MicroBatch:
    """Same-tier, same-model-version requests stacked for execution."""

    policy: TierPolicy
    requests: list[PendingRequest]
    assembled_s: float
    version: str = ""

    @property
    def n_members(self) -> int:
        return sum(p.request.n_members for p in self.requests)


class MicroBatcher:
    """Pulls from an :class:`AdmissionQueue`, emits :class:`MicroBatch`es."""

    def __init__(self, queue: AdmissionQueue,
                 config: BatcherConfig | None = None):
        self.queue = queue
        self.config = config if config is not None else BatcherConfig()

    def next_batch(self, now: float
                   ) -> tuple[MicroBatch | None, list[PendingRequest]]:
        """Assemble the next micro-batch at virtual time ``now``.

        Returns ``(batch, expired)``: ``batch`` is ``None`` when nothing
        is queued; ``expired`` are requests whose tier deadline passed
        while they waited (the service answers those with ``Timeout``).
        """
        with _span("serve.batch_assembly", category="serve",
                   queued=len(self.queue)):
            head, expired = self.queue.pop_live(now)
            if head is None:
                return None, expired
            requests = [head]
            members = head.request.n_members
            tier = head.request.tier
            while (len(requests) < self.config.max_requests
                   and members < self.config.max_members):
                nxt = self.queue.pop_tier(tier, head.version)
                if nxt is None:
                    break
                if nxt.expired(now):
                    expired.append(nxt)
                    continue
                if members + nxt.request.n_members > self.config.max_members:
                    # Over the member budget: put it back (at its original
                    # position) for the next batch rather than splitting a
                    # request's ensemble across batches.
                    self.queue.requeue(nxt)
                    break
                requests.append(nxt)
                members += nxt.request.n_members
            batch = MicroBatch(policy=head.policy, requests=requests,
                               assembled_s=now, version=head.version)
            _count("serve.batches", "micro-batches assembled", 1, tier=tier)
            _observe("serve.batch_members", "member rows per micro-batch",
                     members, buckets=(1, 2, 4, 8, 16, 32, 64, 128),
                     tier=tier)
            return batch, expired

    @staticmethod
    def member_tasks(batch: MicroBatch) -> list[MemberTask]:
        """Explode a batch into per-member tasks, request by request in
        ``batch.requests`` order and member by member within each."""
        tasks = []
        for pending in batch.requests:
            req = pending.request
            # float32 like the direct rollout's output buffer, so served
            # trajectories are bit-identical to it from the IC onward.
            init = np.asarray(req.init_state, dtype=np.float32)
            for m in range(req.n_members):
                seed = member_seed(req.seed, m)
                tasks.append(MemberTask(
                    pending=pending, member_seed=seed,
                    state=init, rng=np.random.default_rng(seed),
                    lead=0, target=req.n_steps,
                    trajectory=[init]))
        return tasks


def execute_batch(batch: MicroBatch, stepper, cache: ForecastCache,
                  weights: str, solver: str) -> dict:
    """Run one micro-batch to completion on ``stepper``: restore each
    member's longest cached prefix, advance every unfinished member
    through stacked forwards — one row per distinct member-state (module
    docstring), the rows in member groups on the kept worker processes
    (:func:`~repro.diffusion.sampler.step_sharded`) — and cache each new
    step, a read-only view of the step's output.  ``weights`` /
    ``solver`` are the version's content digests.

    Returns ``{"rows", "forwards", "members"}``; ``rows[i]`` holds the
    :class:`~repro.serve.ForecastResponse` fields ``forecast`` (a fresh
    float32 array), ``cache_hits``, ``cache_misses`` and ``quarantines``
    (0 here) of ``batch.requests[i]``; ``members`` counts requested member
    rows, coalesced or not.
    """
    tasks = MicroBatcher.member_tasks(batch)

    def key(task: MemberTask, lead: int) -> str:
        return forecast_key(weights, task.pending.init_digest,
                            task.member_seed, solver,
                            task.pending.request.start_index, lead)

    with _span("serve.cache", category="serve", tier=batch.policy.name,
               members=len(tasks)):
        # Walk the content-addressed prefix forward while cached, leaving
        # the task's state/rng/trajectory positioned at the longest hit.
        for task in tasks:
            last = None
            while not task.done:
                entry = cache.get(key(task, task.lead + 1))
                if entry is None:
                    task.cache_misses += 1
                    break
                task.trajectory.append(entry.state)
                task.lead += 1
                task.cache_hits += 1
                last = entry
            if last is not None:
                task.state = last.state
                task.rng.bit_generator.state = last.rng_state
    forwards = coalesced = 0
    while active := [t for t in tasks if not t.done]:
        # Single flight: tasks about to compute the same address share one
        # row, led by the first of them in task order.
        flights: dict[str, list[MemberTask]] = {}
        for task in active:
            flights.setdefault(key(task, task.lead + 1), []).append(task)
        leaders = [flight[0] for flight in flights.values()]
        new_states = step_sharded(
            stepper, np.stack([t.state for t in leaders]),
            [t.pending.request.start_index + t.lead for t in leaders],
            [t.rng for t in leaders])
        # read-only: the cache adopts each row instead of copying it
        new_states.flags.writeable = False
        forwards += batch.policy.forwards_per_data_step()
        coalesced += len(active) - len(leaders)
        for (address, flight), state in zip(flights.items(), new_states):
            rng_state = flight[0].rng.bit_generator.state
            cache.put(address, state, rng_state)
            for task in flight:
                task.state = state
                task.lead += 1
                task.trajectory.append(state)
            for follower in flight[1:]:     # may outlive its leader
                follower.rng.bit_generator.state = rng_state
    _count("serve.coalesced_steps",
           "member-steps answered by another member's row in the same batch",
           coalesced, tier=batch.policy.name)
    rows = []
    members = iter(tasks)
    for pending in batch.requests:
        mine = [next(members) for _ in range(pending.request.n_members)]
        forecast = np.stack([np.stack(t.trajectory) for t in mine])
        rows.append({
            "forecast": forecast.astype(np.float32, copy=False),
            "cache_hits": sum(t.cache_hits for t in mine),
            "cache_misses": sum(t.cache_misses for t in mine),
            "quarantines": 0})
    return {"rows": rows, "forwards": forwards, "members": len(tasks)}
