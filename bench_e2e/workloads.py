"""Seeded input generators for the five workloads.

This is the only file ``--seed`` feeds.  It imports nothing from ``repro``:
it emits plain query/step specifications (tier, members, lead, which
archive sample, which noise seed, when it arrives) that the harness turns
into ``ForecastRequest``s / batches, so the program only ever sees
generated inputs.

What the seed moves and what it does not
----------------------------------------
The driver compares medians of runs on *different* seeds, so every workload
keeps the amount and shape of work fixed and lets the seed move only the
data: which archive samples are forecast from, the ensemble noise seeds,
the order of requests inside a block, and the Poisson arrival gaps.  The
request *composition* of a block/cycle is an exact template (stratified
traffic), which is what makes a median latency land on the same request
type on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Query", "steady_block", "cycle_requests",
           "rollout_query", "train_seed", "swipe_batch_indices",
           "STEADY_TEMPLATE", "STEADY_RATE_HZ", "CYCLE_TEMPLATE",
           "CYCLE_PERIOD_S", "cycle_duration_s"]

#: name -> one-line reason (mirrored verbatim in BENCHMARK.json).
WORKLOADS = {
    "serve_steady": "open-loop Poisson 1 req/s through ForecastService at "
                    "light load: 1-4 row forwards, overhead-bound, cache "
                    "mostly misses",
    "serve_cycle": "bursty forecast cycles on one init state: batcher "
                   "coalesces 14-18 rows, cache serves half the lookups, "
                   "serve bookkeeping at its largest share",
    "rollout_ens16": "closed-loop 16-member ensemble rollout with serve "
                     "bypassed: kernels/model at large batch; serve-only "
                     "changes must not move it",
    "train_tiny": "Trainer.fit on batch 4: tape, backward, AdamW, EMA; "
                  "inference-only changes must leave it flat",
    "swipe_train": "SwipeEngine.train_step on DP=2 x PP=4, GAS=4: 1F1B p2p "
                   "and ZeRO collectives through the metered SimCluster",
}


@dataclass(frozen=True)
class Query:
    """One forecast request, by reference into the archive's test split.

    ``sample`` indexes the test split (the harness resolves it to a state
    and a forcing-calendar position); ``arrival_s`` is virtual time.
    """

    tier: str
    members: int
    lead: int
    sample: int
    seed: int
    arrival_s: float
    repeat: bool = False


# ---------------------------------------------------------------------------
# serve_steady
# ---------------------------------------------------------------------------

#: Poisson arrival rate on the virtual clock.
STEADY_RATE_HZ = 1.0

#: One block = 20 requests, tiers 8/9/3 (0.40/0.45/0.15), members in
#: {1,2,4}, lead in {1,2}.  Six of the twenty (30 %) re-ask an earlier
#: query of the same block (``repeat_of`` = index into this tuple) and are
#: served from the cache.  The standard tier carries three identical-cost
#: (1 member, 1 step) queries between its three repeats and its three
#: dearer queries, so the standard-tier median sits in the middle of a
#: homogeneous cluster on every seed.
STEADY_TEMPLATE: tuple[tuple[str, int, int, int | None], ...] = (
    # tier, members, lead, repeat_of
    ("fast", 1, 1, None), ("fast", 1, 2, None), ("fast", 2, 1, None),
    ("fast", 2, 2, None), ("fast", 4, 1, None), ("fast", 4, 2, None),
    ("fast", 1, 1, 0), ("fast", 2, 1, 2),
    ("standard", 1, 1, None), ("standard", 1, 1, None),
    ("standard", 1, 1, None), ("standard", 2, 1, None),
    ("standard", 4, 1, None), ("standard", 2, 2, None),
    ("standard", 1, 1, 8), ("standard", 2, 1, 11), ("standard", 2, 2, 13),
    ("high", 1, 1, None), ("high", 2, 1, None), ("high", 1, 1, 17),
)


def steady_block(seed: int, block: int, n_samples: int,
                 start_s: float) -> list[Query]:
    """Block ``block`` of the ``serve_steady`` stream, arrival-stamped from
    ``start_s`` on.  Originals come in a seeded order; every repeat is
    placed at a seeded position after its original."""
    rng = np.random.default_rng([seed, 1, block])
    originals = [i for i, t in enumerate(STEADY_TEMPLATE) if t[3] is None]
    order = [originals[i] for i in rng.permutation(len(originals))]
    for i, t in enumerate(STEADY_TEMPLATE):
        if t[3] is not None:
            after = order.index(t[3]) + 1
            order.insert(int(rng.integers(after, len(order) + 1)), i)
    data = {i: (int(rng.integers(n_samples)), int(rng.integers(1 << 16)))
            for i in originals}
    arrivals = start_s + rng.exponential(1.0 / STEADY_RATE_HZ,
                                         size=len(order)).cumsum()
    out = []
    for slot, i in enumerate(order):
        tier, members, lead, repeat_of = STEADY_TEMPLATE[i]
        sample, qseed = data[i if repeat_of is None else repeat_of]
        out.append(Query(tier, members, lead, sample, qseed,
                         float(arrivals[slot]), repeat_of is not None))
    return out


# ---------------------------------------------------------------------------
# serve_cycle
# ---------------------------------------------------------------------------

#: Virtual seconds between forecast cycles (long enough to drain one).
CYCLE_PERIOD_S = 30.0

#: The pinned per-cycle schedule: (tier, members, lead, seed slot, arrival
#: offset).  It is a constant, *not* drawn from ``--seed``: under backlog
#: the order decides which requests share a batch and which hit the cache,
#: so a seed-dependent schedule would make the amount of computed work
#: differ between seeds.
#:
#: Wave 1 (offset 0, all products requested the instant the analysis is
#: out): six fast and eight one-step standard requests on three noise
#: seeds.  They are all queued before the first dispatch, so the batcher
#: coalesces one 14-row fast batch and one 18-row standard batch (19
#: forwards); requests that share a seed slot duplicate each other's
#: members inside the batch (waste the ledger reports as
#: ``serve.useful_step_frac``).
#: Wave 2 (offset 15 s, after wave 1 has drained): seven re-asks served by
#: cache reads, two of them one or two steps longer than anything cached
#: (prefix resumption on the cheap fast tier).
CYCLE_TEMPLATE: tuple[tuple[str, int, int, int, float], ...] = (
    ("fast", 4, 4, 0, 0.0), ("fast", 2, 2, 1, 0.0), ("fast", 1, 4, 2, 0.0),
    ("fast", 4, 1, 2, 0.0), ("fast", 2, 2, 0, 0.0), ("fast", 1, 1, 1, 0.0),
    ("standard", 4, 1, 0, 0.0), ("standard", 2, 1, 0, 0.0),
    ("standard", 4, 1, 1, 0.0), ("standard", 2, 1, 1, 0.0),
    ("standard", 1, 1, 2, 0.0), ("standard", 2, 1, 2, 0.0),
    ("standard", 1, 1, 0, 0.0), ("standard", 2, 1, 2, 0.0),
    ("standard", 4, 1, 0, 15.0), ("standard", 2, 1, 1, 15.0),
    ("standard", 2, 1, 2, 15.0), ("fast", 4, 4, 0, 15.0),
    ("fast", 1, 4, 2, 15.0), ("fast", 2, 4, 1, 15.0),
    ("fast", 4, 2, 2, 15.0),
)


def cycle_duration_s(result: dict) -> float:
    """Pinned virtual service time of one micro-batch:
    ``forwards * (4 ms + 4 ms * rows)``, today's measured forward cost.
    With measured durations the batch composition under backlog is chaotic;
    pinning it makes batches and cache hits identical in every run and on
    both commits."""
    return result["forwards"] * (0.004 + 0.004 * result["members"])


def cycle_requests(seed: int, cycle: int, n_samples: int) -> list[Query]:
    """Cycle ``cycle``: the pinned template on one seeded init state and
    three seeded noise seeds."""
    rng = np.random.default_rng([seed, 2, cycle])
    sample = int(rng.integers(n_samples))
    seeds = [int(s) for s in rng.integers(1 << 16, size=3)]
    base = cycle * CYCLE_PERIOD_S
    return [Query(tier, members, lead, sample, seeds[slot], base + off)
            for tier, members, lead, slot, off in CYCLE_TEMPLATE]


# ---------------------------------------------------------------------------
# rollout_ens16 / train_tiny / swipe_train
# ---------------------------------------------------------------------------

def rollout_query(seed: int, rep: int, n_samples: int) -> tuple[int, int]:
    """(test-split sample, noise seed) of ensemble rollout ``rep``."""
    rng = np.random.default_rng([seed, 3, rep])
    return int(rng.integers(n_samples)), int(rng.integers(1 << 16))


def train_seed(seed: int) -> int:
    """Seed of the trainer's batch/time/noise generators."""
    return int(np.random.default_rng([seed, 4]).integers(1 << 16))


def swipe_batch_indices(seed: int, step: int, n_train: int,
                        batch: int) -> np.ndarray:
    """Training-split indices of SWiPe step ``step``'s global batch."""
    rng = np.random.default_rng([seed, 5, step])
    return rng.choice(n_train, size=batch, replace=False)
