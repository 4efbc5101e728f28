"""The five workloads as objects the runner can build, warm up, repeat and
check.  Only ``repro``'s public API and this directory's files are used.

Every workload follows one shape: ``build()`` is the set-up a user pays
(archive, model, service or engine, warm-up); ``rep(k)`` is one repetition
on inputs generated from ``(seed, k)``, timed on the workload's
:class:`~bench_e2e.calibrate.ReferenceClock` (so every time it returns is
at reference machine speed); ``check()`` runs the output oracle outside the
timed section and returns the problems found.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import NamedTuple

import numpy as np

from . import ensure_repro, workloads as gen
from .calibrate import ReferenceClock

ensure_repro()

from repro import Aeris, Trainer, quickstart_components  # noqa: E402
from repro.model import ParallelLayout  # noqa: E402
from repro.parallel import RankTopology, SwipeEngine  # noqa: E402
from repro.perf import AURORA, CommModel  # noqa: E402
from repro.serve import (ForecastRequest, ForecastService,  # noqa: E402
                         ServiceConfig)
from repro.tensor import Tensor, no_grad  # noqa: E402

__all__ = ["Rep", "Workload", "WORKLOADS", "warm_forward"]

#: Archive behind every workload: the quickstart grid, kept short because
#: set-up is measured and repeated.
ARCHIVE = dict(height=16, width=32, train_years=0.1, test_years=0.05)
MAX_LEAD = 4
ENSEMBLE_MEMBERS = 16
ROLLOUT_STEPS = 1
TRAIN_CHUNK = 5
#: ``serve_steady`` hands its 20-request block to the service five requests
#: at a time, so the clock reads the machine's speed every ~0.6 s.
STEADY_CHUNK = 5
SWIPE_DP, SWIPE_GAS, SWIPE_BATCH = 2, 4, 8
#: CommModel floors parameters-per-stage, the meter floors bytes per
#: parameter: they agree to a few bytes per step, not to the byte.
COMM_REL_TOL = 1e-4


class Rep(NamedTuple):
    """One repetition: wall seconds (at reference speed), units of work
    completed, the operation latencies it contributes (same clock),
    operations attempted / failed."""

    wall_s: float
    work: float
    latencies: tuple
    attempted: int
    failed: int


def warm_forward(model, rows) -> None:
    """One no-grad forward per batch shape, so plan caches, RoPE tables and
    the workspace arena are filled before anything is timed."""
    cfg = model.config
    for b in rows:
        x = np.zeros((b, cfg.height, cfg.width, cfg.channels), np.float32)
        f = np.zeros((b, cfg.height, cfg.width, cfg.forcing_channels),
                     np.float32)
        with no_grad():
            model(Tensor(x), Tensor(np.full(b, 0.5, np.float32)), Tensor(x),
                  Tensor(f))


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Base: subclasses fill ``build`` / ``rep`` / ``check`` / ``digest``."""

    name = ""
    #: what ``work_per_s`` counts and what ``latency_p50_s`` times here.
    work_unit = ""
    operation = ""

    def __init__(self, seed: int, clock: ReferenceClock):
        self.seed = seed
        self.clock = clock
        self.model = None      # the network, for the ledger's micro-measures

    def build(self) -> None:
        raise NotImplementedError

    def rep(self, k: int) -> Rep:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> str:
        """SHA-256 of the first repetition's outputs: equal between two
        result files iff parent and change computed the same thing."""
        raise NotImplementedError

    def counts(self) -> dict:
        """Sample counts for the result file's provenance."""
        return {}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

class _ServeWorkload(Workload):
    work_unit = "member-steps (n_members x n_steps of completed requests)"
    duration_fn = None
    tiers: tuple = ()
    warm_rows: tuple = ()

    def build(self) -> None:
        self.archive, trainer = quickstart_components(**ARCHIVE)
        forecaster = trainer.forecaster()
        self.model = forecaster.model
        student = Aeris(forecaster.model.config, seed=3)
        self.service = ForecastService(
            forecaster, student=student,
            config=ServiceConfig(n_workers=2), duration_fn=self.duration_fn)
        self.test_idx = self.archive.split_indices("test")
        self.n_samples = len(self.test_idx) - MAX_LEAD
        warm_forward(forecaster.model, self.warm_rows)
        warm_forward(student, self.warm_rows)
        self.first_responses: list = []
        self.latencies = {tier: [] for tier in self.tiers}
        self.queue_waits: list[float] = []
        #: per segment: (virtual seconds it spanned, ran under the tracer)
        self.virtual_spans: list[tuple[float, bool]] = []
        self.reps_done = 0
        self.requests_by_tier = {tier: 0 for tier in self.tiers}

    def _request(self, q: gen.Query) -> ForecastRequest:
        idx = int(self.test_idx[q.sample])
        return ForecastRequest(
            init_state=self.archive.fields[idx], n_steps=q.lead,
            n_members=q.members, tier=q.tier, seed=q.seed, start_index=idx,
            arrival_s=q.arrival_s)

    def _serve(self, segments) -> Rep:
        """Run ``(queries, start_s)`` segments through the service, each
        one timed call of ``ForecastService.run``.  The service's virtual
        clock runs on measured (raw) durations, so a segment's latencies
        are brought to reference speed with the segment's factor."""
        wall = work = attempted = completed = 0
        latencies = {tier: [] for tier in self.tiers}
        for queries, start_s in segments:
            requests = [self._request(q) for q in queries]
            responses, seconds, speed = self.clock.timed(
                lambda: self.service.run(requests, start_s=start_s))
            wall += seconds
            attempted += len(requests)
            done = [r for r in responses if r.ok]
            completed += len(done)
            for r in done:
                latencies[r.request.tier].append(r.latency_s / speed)
                self.queue_waits.append(r.queue_wait_s / speed)
                work += r.request.n_members * r.request.n_steps
            for r in responses:
                self.requests_by_tier[r.request.tier] += 1
            self.virtual_spans.append((
                max((r.request.arrival_s + r.latency_s for r in done),
                    default=start_s) - start_s,
                self.clock.tracer is not None))
            if not self.reps_done:
                self.first_responses += responses
        for tier, values in latencies.items():
            self.latencies[tier] += values
        self.reps_done += 1
        return Rep(wall, work, tuple(self.op_latencies(latencies, wall)),
                   attempted, attempted - completed)

    def op_latencies(self, latencies: dict, wall: float):
        """The repetition's samples of the workload's operation latency."""
        raise NotImplementedError

    def check(self) -> list[str]:
        problems = []
        tally = self.service.tally
        answered = (tally["completed"] + tally["rejected"]
                    + tally["timeout"] + tally["failed"])
        if tally["submitted"] != answered:
            problems.append(f"request conservation broken: {tally}")
        for tier in self.tiers:
            sampled = sorted(
                (r for r in self.first_responses
                 if r.ok and r.request.tier == tier),
                key=lambda r: r.request.n_members * r.request.n_steps)[:3]
            if len(sampled) < 3:
                problems.append(f"fewer than 3 completed {tier} responses")
            for r in sampled:
                req = r.request
                direct = self.service.stepper(tier).ensemble_rollout(
                    req.init_state, n_steps=req.n_steps,
                    n_members=req.n_members, seed=req.seed,
                    start_index=req.start_index)
                if not np.array_equal(r.forecast, direct):
                    problems.append(
                        f"{tier} response differs from a direct rollout")
        return problems

    def digest(self) -> str:
        return _sha(r.forecast for r in sorted(
            self.first_responses, key=lambda r: r.request.arrival_s) if r.ok)

    def counts(self) -> dict:
        return {"requests_by_tier": dict(self.requests_by_tier),
                "tally": dict(self.service.tally),
                "dispatches": self.service.pool.n_dispatches}


class ServeSteady(_ServeWorkload):
    name = "serve_steady"
    operation = ("a standard-tier request, arrival to response on the "
                 "virtual clock")
    tiers = ("fast", "standard", "high")
    warm_rows = (1, 2, 4)

    def build(self) -> None:
        super().build()
        self.clock_s = 0.0

    def rep(self, k: int) -> Rep:
        queries = gen.steady_block(self.seed, k, self.n_samples,
                                   self.clock_s)
        segments = []
        for i in range(0, len(queries), STEADY_CHUNK):
            chunk = queries[i:i + STEADY_CHUNK]
            segments.append((chunk, self.clock_s))
            self.clock_s = chunk[-1].arrival_s
        return self._serve(segments)

    def op_latencies(self, latencies, wall):
        return latencies["standard"]


class ServeCycle(_ServeWorkload):
    name = "serve_cycle"
    operation = "draining one forecast cycle, wall seconds"
    tiers = ("fast", "standard")
    #: the row counts the pinned template's batches step through
    warm_rows = (2, 5, 9, 14, 18)
    duration_fn = staticmethod(gen.cycle_duration_s)

    def rep(self, k: int) -> Rep:
        queries = gen.cycle_requests(self.seed, k, self.n_samples)
        waves = sorted({q.arrival_s for q in queries})
        return self._serve([([q for q in queries if q.arrival_s == t], t)
                            for t in waves])

    def op_latencies(self, latencies, wall):
        return (wall,)


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

class RolloutEns16(Workload):
    name = "rollout_ens16"
    work_unit = "member-steps (16 members x lead steps)"
    operation = "one lead step of the 16-member ensemble, wall seconds"

    def build(self) -> None:
        self.archive, trainer = quickstart_components(**ARCHIVE)
        self.forecaster = trainer.forecaster()
        self.model = self.forecaster.model
        self.test_idx = self.archive.split_indices("test")
        self.n_samples = len(self.test_idx) - MAX_LEAD
        warm_forward(self.forecaster.model, (ENSEMBLE_MEMBERS,))
        self.first = None
        self.rollouts = 0

    def rep(self, k: int) -> Rep:
        sample, qseed = gen.rollout_query(self.seed, k, self.n_samples)
        idx = int(self.test_idx[sample])
        out, wall, _ = self.clock.timed(
            lambda: self.forecaster.ensemble_rollout(
                self.archive.fields[idx], n_steps=ROLLOUT_STEPS,
                n_members=ENSEMBLE_MEMBERS, seed=qseed, start_index=idx))
        if self.first is None:
            self.first = (idx, qseed, out)
        self.rollouts += 1
        bad = int((~np.isfinite(out[:, 1:]).all(axis=(2, 3, 4))).sum())
        return Rep(wall, ENSEMBLE_MEMBERS * ROLLOUT_STEPS,
                   (wall / ROLLOUT_STEPS,) * ROLLOUT_STEPS,
                   ENSEMBLE_MEMBERS * ROLLOUT_STEPS, bad)

    def check(self) -> list[str]:
        idx, qseed, out = self.first
        problems = []
        if not np.isfinite(out).all():
            problems.append("non-finite forecast")
        sequential = self.forecaster.ensemble_rollout(
            self.archive.fields[idx], n_steps=1, n_members=2, seed=qseed,
            start_index=idx, batched=False)
        if not np.array_equal(out[:2, :2], sequential):
            problems.append("batched rollout differs from batched=False")
        return problems

    def digest(self) -> str:
        return _sha([self.first[2]])

    def counts(self) -> dict:
        return {"rollouts": self.rollouts, "members": ENSEMBLE_MEMBERS,
                "lead_steps": ROLLOUT_STEPS}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class TrainTiny(Workload):
    name = "train_tiny"
    work_unit = "images (steps x batch 4)"
    operation = "one Trainer step, wall seconds"

    def build(self) -> None:
        self.archive, proto = quickstart_components(**ARCHIVE)
        self.trainer = Trainer(
            proto.model, self.archive,
            dataclasses.replace(proto.config,
                                seed=gen.train_seed(self.seed)))
        self.model = self.trainer.model
        self.trainer.fit(1)

    def rep(self, k: int) -> Rep:
        trainer = self.trainer
        skipped = trainer.skipped_steps
        wall = self.clock.timed(lambda: trainer.fit(TRAIN_CHUNK)).seconds
        return Rep(wall, TRAIN_CHUNK * trainer.config.batch_size,
                   (wall / TRAIN_CHUNK,) * TRAIN_CHUNK, TRAIN_CHUNK,
                   trainer.skipped_steps - skipped)

    def check(self) -> list[str]:
        history = np.asarray(self.trainer.history)
        problems = []
        if not np.isfinite(history).all():
            problems.append("non-finite loss in history")
        fifth = max(1, len(history) // 5)
        if not history[-fifth:].mean() < history[:fifth].mean():
            problems.append(
                f"loss did not fall: {history[:fifth].mean():.4f} -> "
                f"{history[-fifth:].mean():.4f}")
        return problems

    def digest(self) -> str:
        return _sha([np.asarray(self.trainer.history[:1 + TRAIN_CHUNK])])

    def counts(self) -> dict:
        return {"steps": len(self.trainer.history),
                "batch": self.trainer.config.batch_size}


class SwipeTrain(Workload):
    name = "swipe_train"
    work_unit = "images (steps x global batch 8)"
    operation = "one SWiPe step incl. its batch, wall seconds"

    def build(self) -> None:
        self.archive, proto = quickstart_components(**ARCHIVE)
        config = dataclasses.replace(
            proto.model.config,
            layout=ParallelLayout(wp=1, wp_grid=(1, 1), pp=4, sp=1,
                                  gas=SWIPE_GAS))
        self.topology = RankTopology(dp=SWIPE_DP, pp=config.pp_stages,
                                     wp_grid=(1, 1), sp=1)
        self.engine = SwipeEngine(config, self.archive, self.topology,
                                  lr=1e-3, seed=0)
        self.model = self.engine.replicas[0]
        self.norms = (self.archive.state_normalizer(),
                      self.archive.residual_normalizer(),
                      self.archive.forcing_normalizer())
        self.train_idx = self.archive.split_indices("train")
        self.history: list[float] = []
        self._step(np.arange(SWIPE_BATCH))
        self.history.clear()

    def _step(self, positions) -> float:
        cond, residual, forc = self.archive.training_batch(
            self.train_idx[positions], *self.norms)
        x_t, t, v = self.engine.make_training_pairs(residual)
        loss = self.engine.train_step(x_t, t, v, cond, forc, gas=SWIPE_GAS)
        self.history.append(loss)
        return loss

    def rep(self, k: int) -> Rep:
        positions = gen.swipe_batch_indices(self.seed, k,
                                            len(self.train_idx), SWIPE_BATCH)
        loss, wall, _ = self.clock.timed(lambda: self._step(positions))
        return Rep(wall, SWIPE_BATCH, (wall,), 1,
                   0 if np.isfinite(loss) else 1)

    def comm_prediction(self) -> dict:
        """Gradient-allreduce bytes per step the analytic model predicts
        for this topology (per rank x PP stages x DP ranks)."""
        model = CommModel(self.engine.config, AURORA, self.topology)
        return {"allreduce": model.grad_allreduce_bytes()
                * self.topology.pp * self.topology.dp}

    def check(self) -> list[str]:
        problems = []
        if not np.isfinite(self.history).all():
            problems.append("non-finite SWiPe loss")
        first, *others = [r.state_dict() for r in self.engine.replicas]
        for other in others:
            if any(not np.array_equal(first[n], other[n]) for n in first):
                problems.append("DP replicas' weights diverged")
        steps = len(self.history) + 1          # + the warm-up step
        metered = self.engine.cluster.stats.total_bytes("allreduce")
        predicted = self.comm_prediction()["allreduce"] * steps
        if abs(metered - predicted) > COMM_REL_TOL * predicted:
            problems.append(f"allreduce bytes {metered} != CommModel "
                            f"prediction {predicted}")
        return problems

    def digest(self) -> str:
        return _sha([np.asarray(self.history[:1])])

    def counts(self) -> dict:
        return {"steps": len(self.history), "global_batch": SWIPE_BATCH,
                "ranks": self.topology.world_size}


WORKLOADS = {cls.name: cls for cls in (ServeSteady, ServeCycle, RolloutEns16,
                                        TrainTiny, SwipeTrain)}
