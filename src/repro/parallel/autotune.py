"""SWiPe layout autotuner: enumerate → prune → calibrate → plan.

The paper tunes its (DP, PP, WP, SP) layouts by hand per Aurora
configuration (Table II); this module makes the system choose, persist,
and defend its own layouts:

1. **enumerate** — every :class:`~repro.parallel.topology.RankTopology`
   candidate for a model + machine + rank budget: DP over divisors of
   the global batch, the WP grid over the window grid, SP up to the
   machine's tiles per node, crossed with micro-batch counts.  PP is the
   model's stage structure (``pp_stages`` for pipelined engines, 1 for
   the monolithic reference trainer) and is never factorized — the
   pipeline indexes real stages, not an abstract mesh axis.
2. **prune** — divisibility constraints first (window grid, Ulysses
   heads, batch), then the :mod:`repro.perf` memory model: a candidate
   whose footprint exceeds the tile budget even with full activation
   checkpointing is recorded as infeasible (with the reason), not
   silently dropped — the records are part of the plan, so
   :func:`verify_plan` re-derives them leaf by leaf.
3. **predict** — :func:`repro.perf.estimate_performance` (bubble + comm
   + optimizer/allreduce tail, both layouts) ranks the survivors;
   checkpointing candidates carry the ~1/3 recompute overhead.
4. **calibrate** — the top-K survivors (and the worst, for the margin
   claim) are re-timed through the dependency-driven 1F1B timeline
   simulator over the same :func:`repro.perf.step_terms` at a *measured*
   sustained FLOP rate.  Calibration is reported alongside the
   prediction; it never changes the deterministic ranking, so a plan
   re-derived in CI (no timers) reproduces the artifact bit-for-bit.

The result is a :class:`TunedPlan` — a JSON artifact addressed by its
planning inputs (``tools/autotune_cli.py plan --out`` writes it
crash-safely).  Committed snapshots under
``benchmarks/results/plans/`` are the CI drift oracle:
``tools/autotune_cli.py verify`` re-derives each and fails on any leaf
that moved.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from ..model import AerisConfig
from ..model.config import SMALL, TABLE_II, TINY, config_to_dict
from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..perf.machine import AURORA, LUMI, Machine
from ..perf.memory import CHECKPOINT_RECOMPUTE_OVERHEAD, MemoryModel
from ..perf.pipeline_model import bubble_fraction, simulate_schedule
from ..perf.scaling import estimate_performance, step_terms
from ..perf.tradeoff import checkpointing_plan
from ..resilience.checksum import json_digest
from .topology import RankTopology
from .window_parallel import window_sharding

__all__ = [
    "Candidate", "TunedPlan", "NoFeasibleLayout",
    "enumerate_candidates", "plan_for", "calibrated_step_s", "plan_digest",
    "load_plan",
    "verify_plan",
    "resolve_config", "resolve_machine", "CONFIGS", "MACHINES",
]

SCHEMA_VERSION = 1

#: Resolvable names for snapshot verification.
CONFIGS: dict[str, AerisConfig] = {"tiny": TINY, "small": SMALL, **TABLE_II}
MACHINES: dict[str, Machine] = {"aurora": AURORA, "lumi": LUMI}

#: Relative tolerance :func:`verify_plan` allows a float leaf.
VERIFY_REL_TOL = 1e-9

#: Detailed pruned-candidate records kept per plan (full counts are
#: always kept; examples are capped so huge sweeps stay small on disk).
_MAX_PRUNED_RECORDS = 32


class NoFeasibleLayout(ValueError):
    """No candidate survives pruning for this (config, machine, budget)."""


# ---------------------------------------------------------------------------
# candidates


@dataclass(frozen=True)
class Candidate:
    """One feasible layout with its predicted performance."""

    dp: int
    pp: int
    wp_grid: tuple[int, int]
    sp: int
    micro_batch: int
    gas: int
    checkpointing: bool
    predicted_step_s: float
    images_per_sec: float
    mfu: float
    bubble_frac: float
    memory_gb: float           # per-rank footprint (states + activations)
    windows_per_rank: int

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    @property
    def topology(self) -> RankTopology:
        return RankTopology(dp=self.dp, pp=self.pp,
                            wp_grid=tuple(self.wp_grid), sp=self.sp)

    @property
    def layout_key(self) -> str:
        a, b = self.wp_grid
        return (f"dp{self.dp}.pp{self.pp}.wp{a}x{b}."
                f"sp{self.sp}.mb{self.micro_batch}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["wp_grid"] = list(self.wp_grid)
        d["layout"] = self.layout_key
        d["world_size"] = self.world_size
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Candidate":
        names = {f.name for f in dataclasses.fields(cls)}
        kw = {k: v for k, v in d.items() if k in names}
        kw["wp_grid"] = tuple(kw["wp_grid"])
        return cls(**kw)


def _sort_key(c: Candidate):
    """Deterministic ranking: predicted step time, then the layout tuple
    (fewest ranks first) so exact ties never depend on iteration order."""
    return (c.predicted_step_s, c.world_size, c.dp, c.pp, c.wp_grid,
            c.sp, c.micro_batch)


# ---------------------------------------------------------------------------
# enumeration


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_candidates(config: AerisConfig, machine: Machine,
                         world_size: int, gbs: int, *,
                         pipeline: bool = True,
                         micro_batches: tuple[int, ...] = (1, 2, 4),
                         schedule: str = "1f1b") -> tuple[
                             list[Candidate], list[dict], dict]:
    """All feasible layout candidates plus the pruning record.

    Returns ``(feasible, pruned_examples, pruned_counts)``; feasible
    candidates are unranked (see :func:`plan_for`), pruned examples are
    capped at ``_MAX_PRUNED_RECORDS`` in deterministic enumeration order
    while the per-reason counts are exact.
    """
    if world_size < 1 or gbs < 1:
        raise ValueError("world_size and gbs must be positive")
    pp = config.pp_stages if pipeline else 1
    grid_h, grid_w = config.grid
    n_win_h = grid_h // config.window[0]
    n_win_w = grid_w // config.window[1]
    tokens_per_window = config.window[0] * config.window[1]

    feasible: list[Candidate] = []
    pruned: list[dict] = []
    counts: dict[str, int] = {}

    def record(reason: str, dp, wp_grid, sp, micro_batch, detail: str):
        counts[reason] = counts.get(reason, 0) + 1
        if len(pruned) < _MAX_PRUNED_RECORDS:
            pruned.append({
                "reason": reason, "detail": detail, "dp": dp, "pp": pp,
                "wp_grid": list(wp_grid), "sp": sp,
                "micro_batch": micro_batch})

    for sp in range(1, machine.tiles_per_node + 1):
        if config.heads % sp or tokens_per_window % sp:
            record("sequence", 1, (1, 1), sp, None,
                   f"SP={sp} divides neither heads={config.heads} nor "
                   f"window tokens={tokens_per_window}")
            continue
        for a in range(1, n_win_h + 1):
            for b in range(1, n_win_w + 1):
                if n_win_h % a or n_win_w % b:
                    record("windows", 1, (a, b), sp, None,
                           f"window grid {n_win_h}x{n_win_w} not divisible "
                           f"by WP grid {a}x{b}")
                    continue
                sharding = window_sharding(config.grid, config.window,
                                           (a, b))
                for dp in _divisors(gbs):
                    topo = RankTopology(dp=dp, pp=pp, wp_grid=(a, b), sp=sp)
                    if topo.world_size > world_size:
                        record("ranks", dp, (a, b), sp, None,
                               f"needs {topo.world_size} ranks, "
                               f"budget {world_size}")
                        continue
                    for mb in micro_batches:
                        if gbs % (dp * mb):
                            record("batch", dp, (a, b), sp, mb,
                                   f"gbs={gbs} not divisible by "
                                   f"dp*mb={dp * mb}")
                            continue
                        mem = MemoryModel(config, topo)
                        try:
                            ckpt = checkpointing_plan(config, topo, machine,
                                                      mb)
                        except ValueError:
                            record("memory", dp, (a, b), sp, mb,
                                   f"{mem.total_bytes_per_rank(mb, True) / 1e9:.1f} GB "
                                   f"> {machine.tile_memory_gb:.1f} GB tile "
                                   "budget even with checkpointing")
                            continue
                        est = estimate_performance(config, machine, topo,
                                                   gbs, schedule=schedule,
                                                   micro_batch=mb)
                        gas = gbs // (dp * mb)
                        factor = 1.0 + ckpt.recompute_overhead
                        feasible.append(Candidate(
                            dp=dp, pp=pp, wp_grid=(a, b), sp=sp,
                            micro_batch=mb, gas=gas,
                            checkpointing=ckpt.required,
                            predicted_step_s=est.step_time_s * factor,
                            images_per_sec=est.images_per_sec / factor,
                            mfu=est.mfu / factor,
                            bubble_frac=bubble_fraction(pp, gas, schedule),
                            memory_gb=mem.total_bytes_per_rank(
                                mb, checkpointing=ckpt.required) / 1e9,
                            windows_per_rank=sharding.windows_per_rank))
    return feasible, pruned, counts


# ---------------------------------------------------------------------------
# calibration


def calibrated_step_s(config: AerisConfig, machine: Machine,
                      candidate: Candidate, flops_per_s: float,
                      schedule: str = "1f1b") -> float:
    """Step time re-derived from a *measured* sustained FLOP rate.

    Replays the candidate's pipeline under the named ``schedule``
    (:func:`repro.perf.pipeline_model.simulate_schedule`) with
    :func:`repro.perf.step_terms` at ``flops_per_s``, then adds the same
    optimizer/allreduce tail as the analytic model.  Deterministic given
    the rate — the only wall-clock input is the rate measurement itself.
    """
    if flops_per_s <= 0:
        raise ValueError("flops_per_s must be positive")
    topo = candidate.topology
    t_fwd, t_bwd, t_opt, t_ar = step_terms(
        config, machine, topo, candidate.micro_batch, flops_per_s)
    timeline = simulate_schedule(schedule, topo.pp, candidate.gas,
                                 t_fwd=t_fwd, t_bwd=t_bwd)
    factor = (1.0 + CHECKPOINT_RECOMPUTE_OVERHEAD
              if candidate.checkpointing else 1.0)
    return timeline["makespan"] * factor + t_opt + t_ar


# ---------------------------------------------------------------------------
# the input digest


def plan_digest(config: AerisConfig, machine: Machine, world_size: int,
                gbs: int, *, pipeline: bool = True,
                micro_batches: tuple[int, ...] = (1, 2, 4),
                schedule: str = "1f1b") -> str:
    """Address of a plan's *inputs*: everything :func:`plan_for` is handed.
    What the planner derives from them is checked by re-deriving it
    (:func:`verify_plan`)."""
    return json_digest({
        "schema": SCHEMA_VERSION,
        "config": config_to_dict(config),
        "machine": dataclasses.asdict(machine),
        "world_size": world_size,
        "gbs": gbs,
        "pipeline": pipeline,
        "micro_batches": list(micro_batches),
        "schedule": schedule,
    })


# ---------------------------------------------------------------------------
# the plan artifact


@dataclass
class TunedPlan:
    """The autotuner's output: chosen layout + ranked frontier + record.

    ``calibration`` carries the measured-rate re-timings (predicted vs
    measured per top-K layout); it is *excluded* from the digest and from
    snapshot verification, so a plan derived with and without timers
    verifies the same.
    """

    config_name: str
    machine_name: str
    world_size: int
    gbs: int
    pipeline: bool
    micro_batches: tuple[int, ...]
    schedule: str
    chosen: Candidate
    frontier: list[Candidate]
    n_feasible: int
    worst: Candidate
    pruned_counts: dict[str, int]
    pruned: list[dict]
    digest: str
    calibration: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config_name": self.config_name,
            "machine_name": self.machine_name,
            "world_size": self.world_size,
            "gbs": self.gbs,
            "pipeline": self.pipeline,
            "micro_batches": list(self.micro_batches),
            "schedule": self.schedule,
            "digest": self.digest,
            "chosen": self.chosen.to_dict(),
            "frontier": [c.to_dict() for c in self.frontier],
            "n_feasible": self.n_feasible,
            "worst": self.worst.to_dict(),
            "pruned_counts": dict(sorted(self.pruned_counts.items())),
            "pruned": self.pruned,
            "calibration": self.calibration,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "TunedPlan":
        return cls(
            config_name=d["config_name"], machine_name=d["machine_name"],
            world_size=d["world_size"], gbs=d["gbs"],
            pipeline=d["pipeline"],
            micro_batches=tuple(d["micro_batches"]),
            schedule=d["schedule"],
            chosen=Candidate.from_dict(d["chosen"]),
            frontier=[Candidate.from_dict(c) for c in d["frontier"]],
            n_feasible=d["n_feasible"],
            worst=Candidate.from_dict(d["worst"]),
            pruned_counts=dict(d["pruned_counts"]),
            pruned=list(d["pruned"]),
            digest=d["digest"],
            calibration=dict(d.get("calibration", {})),
            schema=d.get("schema", SCHEMA_VERSION))


def plan_for(config: AerisConfig, machine: Machine, world_size: int,
             gbs: int, *, pipeline: bool = True,
             micro_batches: tuple[int, ...] = (1, 2, 4),
             schedule: str = "1f1b", top_k: int = 3,
             frontier_size: int = 16,
             measured_flops_per_s: float | None = None) -> TunedPlan:
    """Enumerate, prune, rank, and (optionally) calibrate — one plan.

    The chosen layout is always the best *predicted* candidate, so the
    plan is deterministic; ``measured_flops_per_s`` (when given) adds a
    ``calibration`` section with measured-rate step times for the top-K
    and the worst survivor, which the CI drift gate ignores.
    """
    feasible, pruned, counts = enumerate_candidates(
        config, machine, world_size, gbs, pipeline=pipeline,
        micro_batches=micro_batches, schedule=schedule)
    if not feasible:
        raise NoFeasibleLayout(
            f"no feasible layout for {config.name} on {machine.name} with "
            f"{world_size} rank(s), gbs={gbs} "
            f"(pruned: {dict(sorted(counts.items()))})")
    ranked = sorted(feasible, key=_sort_key)
    chosen, worst = ranked[0], ranked[-1]
    calibration: dict = {}
    if measured_flops_per_s is not None:
        targets = ranked[:top_k]
        if worst.layout_key not in {c.layout_key for c in targets}:
            targets = targets + [worst]
        calibration = {
            "flops_per_s": measured_flops_per_s,
            "top_k": top_k,
            "measured_step_s": {
                c.layout_key: calibrated_step_s(
                    config, machine, c, measured_flops_per_s, schedule)
                for c in targets},
        }
    plan = TunedPlan(
        config_name=config.name, machine_name=machine.name,
        world_size=world_size, gbs=gbs, pipeline=pipeline,
        micro_batches=tuple(micro_batches), schedule=schedule,
        chosen=chosen, frontier=ranked[:frontier_size],
        n_feasible=len(ranked), worst=worst,
        pruned_counts=counts, pruned=pruned,
        digest=plan_digest(config, machine, world_size, gbs,
                           pipeline=pipeline, micro_batches=micro_batches,
                           schedule=schedule),
        calibration=calibration)
    _count("autotune.plans", "layout plans derived")
    _count("autotune.candidates", "feasible layout candidates", len(ranked))
    for reason, n in sorted(counts.items()):
        _count("autotune.pruned", "candidates pruned as infeasible", n,
               reason=reason)
    _record_event("autotune.plan", subsystem="autotune",
                  config=config.name, machine=machine.name,
                  world_size=world_size, layout=chosen.layout_key,
                  predicted_step_s=chosen.predicted_step_s)
    return plan


# ---------------------------------------------------------------------------
# artifacts on disk


def load_plan(path: str) -> TunedPlan:
    """Read a snapshot; anything but a whole plan of a known schema is a
    ``ValueError`` naming ``path``."""
    try:
        with open(path) as fh:
            plan = TunedPlan.from_dict(json.load(fh))
        if plan.schema != SCHEMA_VERSION:
            raise ValueError(f"unknown schema {plan.schema!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"unreadable plan snapshot {path}: "
                         f"{type(exc).__name__}: {exc}") from exc
    return plan


# ---------------------------------------------------------------------------
# verification (the CI drift gate)


def resolve_config(name: str) -> AerisConfig:
    try:
        return CONFIGS[name] if name in CONFIGS else CONFIGS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown config {name!r}; known: "
                       f"{sorted(CONFIGS)}") from None


def resolve_machine(name: str) -> Machine:
    try:
        return MACHINES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown machine {name!r}; known: "
                       f"{sorted(MACHINES)}") from None


def _leaves(node, path=""):
    """``(json_path, leaf)`` pairs of a plan dict."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def verify_plan(plan: TunedPlan) -> list[str]:
    """Re-derive ``plan`` from the config and machine it names; return
    the drift findings.

    Empty list = the snapshot still describes what the planner would
    derive today.  Two kinds of finding: a stale input digest (the
    recorded address is not that of the inputs the snapshot names), and
    one per leaf that the re-derivation does not reproduce, named by its
    JSON path — floats to :data:`VERIFY_REL_TOL`, every other leaf
    exactly.  Calibration is ignored (wall-clock measurements are not
    content).
    """
    fresh = plan_for(resolve_config(plan.config_name),
                     resolve_machine(plan.machine_name),
                     plan.world_size, plan.gbs,
                     pipeline=plan.pipeline,
                     micro_batches=plan.micro_batches,
                     schedule=plan.schedule,
                     frontier_size=len(plan.frontier))
    drifts: list[str] = []
    if fresh.digest != plan.digest:
        drifts.append(f"stale digest: snapshot {plan.digest[:12]} vs "
                      f"current {fresh.digest[:12]} (planning inputs "
                      "changed; refresh the snapshot)")
    snap, new = dict(_leaves(plan.to_dict())), dict(_leaves(fresh.to_dict()))
    for path in {**snap, **new}:
        if path == "digest" or path.startswith("calibration."):
            continue
        old, now = snap.get(path, "<absent>"), new.get(path, "<absent>")
        close = (isinstance(old, float) and isinstance(now, float)
                 and math.isclose(old, now, rel_tol=VERIFY_REL_TOL))
        if old != now and not close:
            drifts.append(f"{path}: snapshot {old!r} vs fresh {now!r}")
    return drifts

