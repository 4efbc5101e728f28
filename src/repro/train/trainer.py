"""The one training engine, and its single-process constructor.

:class:`TrainingEngine` holds one model, the weights every DP rank of a
:class:`~repro.parallel.RankTopology` holds, and owns everything about a step
but the loss: per DP replica (its rows of the batch) a zero-grad, forward and
backward through an :class:`~repro.parallel.AerisPipeline` and the gradient
set it leaves, the replicas at once on a multi-core box (the others on worker
processes it forks once and keeps); the DP allreduce of the sets on its
metered cluster; the ZeRO-1 AdamW update at its schedule's learning rate; the
optional EMA; the NaN/Inf guard (skip the update, back the LR off); the
optional SDC guard (:class:`~repro.train.guard.StepGuard`); one
``state_payload`` / ``restore`` pair, so a resumed run continues
**bit-exactly**; metrics and spans.  A step optimizes the engine's ``_loss``
over the :class:`Batch` its constructor hands it, a value of arrays that a
worker process is sent: :class:`Trainer` (the paper's recipe, Section VI-B,
at one rank, where the pipeline is one ``Aeris.forward`` and ZeRO-1 is plain
AdamW; the baselines change its ``flow``),
:class:`~repro.parallel.SwipeEngine`, :class:`~repro.train.MultistepFinetuner`
and :class:`~repro.diffusion.ConsistencyDistiller`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..data import SyntheticReanalysis, TOY_SET
from ..diffusion.loss import weighted_velocity_loss
from ..diffusion.sampler import ResidualForecaster
from ..diffusion.solver import SolverConfig
from ..diffusion.trigflow import TrigFlow
from ..kernels import kernels_enabled
from ..kernels.fused import _ROW_SPLIT
from ..model import Aeris
from ..nn import EMA, WarmupConstantDecay
from ..nn.optim import WEIGHT_DECAY
from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..obs.profile import health as _obs_health
from ..obs.profile import metrics as _obs_metrics
from ..obs.profile import observe as _observe
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..parallel.comm import SimCluster
from ..parallel.pipeline import AerisPipeline
from ..parallel.topology import RankTopology
from ..parallel.zero import ZeroOptimizer
from ..rows import WORKERS, enter
from ..scoped import scoped
from ..tensor import Tensor, concat, no_grad
from .checkpoint import (CheckpointError, checkpoint_lineage,
                         read_sharded_checkpoint, write_sharded_checkpoint)
from .guard import NonFiniteLoss, StepGuard

__all__ = ["TrainerConfig", "Trainer", "TrainingEngine", "Batch",
           "ONE_RANK"]

#: LR multiplier applied after a non-finite (skipped) step; recovered one
#: factor at a time after ``LR_RECOVER_STEPS`` clean steps.
LR_BACKOFF_FACTOR = 0.5
LR_RECOVER_STEPS = 25

#: EMA half-life in images (the paper's one value, rescaled for toy runs).
EMA_HALFLIFE_IMAGES = 2_000.0

#: The single-process topology: one rank, one pipeline stage.
ONE_RANK = RankTopology(dp=1, pp=1, wp_grid=(1, 1), sp=1)

#: :meth:`Trainer.validation_loss`'s batches, and the seed of the
#: generators every held-out evaluation draws from.
VALIDATION_BATCHES = 4
VALIDATION_SEED = 1234


class Batch(NamedTuple):
    """One step's work, arrays only: the network inputs ``(x_in, t_in,
    cond, forc)`` over the global batch, and ``extra``, what the engine's
    loss reads besides the network output: ``engine._loss(pred, rows,
    *extra)`` for global batch rows ``rows`` (a slice)."""

    inputs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    extra: tuple


class TrainingEngine:
    """Optimizes ``model``, the one weight set every DP rank of
    ``topology`` holds, with the losses of the batches each step draws.

    ``schedule.lr_at(images_seen)`` gives the learning rate;
    ``ema_halflife`` (images) keeps an EMA of the weights, ``None`` none.
    ``seed`` seeds the engine's batch stream; replica ``d``'s noise-level
    and noise-field generators are seeded ``seed + noise_offsets[i] + d``
    (one noise-level stream per replica, shared by its model-parallel
    ranks, per the paper's seeding rule).
    """

    def __init__(self, model: Aeris, topology: RankTopology, *,
                 schedule, weight_decay: float, ema_halflife: float | None,
                 seed: int, noise_offsets: tuple[int, int], injector):
        self.topology = topology
        self.model = model
        self.replicas = [model] * topology.dp   # the bench oracle's view
        self.injector = injector
        self.cluster = SimCluster(topology.world_size,
                                  ranks_per_node=topology.sp,
                                  injector=injector)
        self.pipelines = [
            AerisPipeline(model, self.cluster,
                          pp_group=[topology.rank_of(d, p, 0, 0)
                                    for p in range(topology.pp)],
                          name=f"dp{d}")
            for d in range(topology.dp)]
        self.dp_group = topology.dp_group(pp=0, wp=0, sp=0)
        self.schedule = schedule
        self.optimizer = ZeroOptimizer(
            self.model.parameters(), self.cluster, self.dp_group,
            lr=schedule.lr_at(0.0), weight_decay=weight_decay)
        self.ema = (EMA(self.model, halflife_images=ema_halflife)
                    if ema_halflife else None)
        self.seed = seed
        self.images_seen = 0.0
        self.rng_batch = np.random.default_rng(seed)
        t_offset, z_offset = noise_offsets
        self.rngs_t = [np.random.default_rng(seed + t_offset + d)
                       for d in range(topology.dp)]
        self.rngs_z = [np.random.default_rng(seed + z_offset + d)
                       for d in range(topology.dp)]
        self.rng_t, self.rng_z = self.rngs_t[0], self.rngs_z[0]
        self.history: list[float] = []
        # NaN/Inf-guard state: 1.0 while healthy, multiplied by
        # LR_BACKOFF_FACTOR per poisoned step, recovered gradually.
        self.lr_backoff = 1.0
        self.skipped_steps = 0
        self._clean_streak = 0
        self.step_retries = 0
        self.guard: StepGuard | None = None

    def _use_archive(self, archive: SyntheticReanalysis) -> None:
        """Train on ``archive``: its loss weights, and its normalizers on
        first use (a SWiPe engine on its caller's batches needs none)."""
        if self.model.config.channels != len(TOY_SET):
            raise ValueError("model channels must match the archive")
        self.archive = archive
        self.lat_weights = archive.grid.latitude_weights()
        self.var_weights = np.asarray(TOY_SET.kappa_weights())

    @functools.cached_property
    def state_norm(self):
        return self.archive.state_normalizer()

    @functools.cached_property
    def residual_norm(self):
        return self.archive.residual_normalizer()

    @functools.cached_property
    def forcing_norm(self):
        return self.archive.forcing_normalizer()

    #: Whether ``_loss`` is a mean of each row's own terms, so that a step
    #: may split its rows across two processes (:meth:`_halves`).
    rowwise_loss = True

    def _loss(self, pred: Tensor, rows: slice, target: np.ndarray,
              out_scale) -> Tensor:
        """The loss of the network output ``pred`` for global batch rows
        ``rows``, from the step's ``Batch.extra``; here the flows' weighted
        MSE of ``pred * out_scale`` against ``target``.  A loop with
        another objective overrides it."""
        return weighted_velocity_loss(pred * out_scale, target[rows],
                                      self.lat_weights, self.var_weights)

    def rows_per_replica(self, batch: int) -> int:
        """Rows per DP replica of a global batch of ``batch`` rows."""
        dp = self.topology.dp
        if batch % dp:
            raise ValueError(f"global batch {batch} not divisible by DP={dp}")
        return batch // dp

    # -- one optimization step --------------------------------------------
    def _run(self, draw: Callable[[], Batch], gas: int = 1) -> float:
        """One step over the batch ``draw()`` returns, in ``gas``
        microbatches per replica; under the SDC guard when there is one
        (a rollback replays ``draw`` from restored generators)."""
        step = functools.partial(self._step, draw, gas)
        return step() if self.guard is None else self.guard.run(step)

    def _step(self, draw: Callable[[], Batch], gas: int,
              allow_retry: bool = False) -> float:
        with _span("train.step", category="train", step=len(self.history)):
            with _span("train.data", category="train"):
                batch = draw()
            images = len(batch.inputs[0])
            value, grads = self._forward_backward(batch, gas)
            if not np.isfinite(value):
                if allow_retry:
                    raise NonFiniteLoss(f"non-finite loss {value!r}")
                # Poisoned step: skip the update entirely (no optimizer
                # step, no EMA blend, no images consumed) and back the LR
                # off so a marginal-stability run eases away from the edge.
                self._skip_poisoned_step(value)
            else:
                with _span("train.optimizer", category="train"):
                    self._update(images, grads)
                self._recover_lr_backoff()
        self.history.append(value)
        self._record_step_metrics(value, images)
        return value

    def _forward_backward(self, batch: Batch, gas: int
                          ) -> tuple[float, list[list]]:
        """Each replica's rows through its pipeline in ``gas``
        microbatches (each loss scaled by ``1 / gas``), from zeroed
        gradients: the mean of the replicas' losses and, per replica, the
        parameters' gradients it left.

        The replicas run at once in contiguous groups
        (:data:`repro.rows.WORKERS`, the engine their owner): this process
        runs the first, a kept worker each other, sent its group's rows of
        the network inputs and the whole ``extra`` (``_loss`` reads it by
        global row; the weights are shared, the optimizer's
        :class:`~repro.nn.optim.FlatParams`); a
        worker's transfers are made here after the join in rank order, as
        a serial run makes them (its faults and bookings too).  One replica
        of one microbatch of 4 rows or more at one rank splits its rows
        instead (:meth:`_halves`; each half ≥ 2 rows, DESIGN §10)."""
        enter(self, lambda: self.optimizer.seat, ())
        n = len(batch.inputs[0])

        def request(rows: slice) -> tuple:
            return (Batch(tuple(a[rows] for a in batch.inputs), batch.extra),
                    gas, rows.start, n)

        if (self.rowwise_loss and self.topology.world_size == 1
                and gas == 1 and n >= 4 and kernels_enabled()):
            halves = {(0, 2): slice(0, n), (0, 1): slice(n // 2, n),
                      (1, 2): slice(0, n // 2)}
            groups = WORKERS.run(self, TrainingEngine._halves, 2,
                                 lambda lo, hi: request(halves[lo, hi]))
        else:
            per = self.rows_per_replica(n)
            groups = WORKERS.run(self, TrainingEngine._replicas,
                                 self.topology.dp, lambda lo, hi: request(
                                     slice(lo * per, hi * per)))
        for _, _, log in groups[1:]:
            for transfer in log:
                self.cluster.transfer(*transfer)
        return (float(np.mean([loss for group in groups
                               for loss in group[0]])),
                [grads for group in groups for grads in group[1]])

    def _replicas(self, lo: int, hi: int, request: tuple) -> tuple:
        """Replicas ``lo:hi`` of the step ``request = (batch, gas, first,
        n)`` — ``batch.inputs`` holds global rows ``first:`` of ``n`` —
        their losses, gradient sets and, in a worker, the transfers they
        logged for the caller to make (``SimCluster.log``)."""
        batch, gas, first, n = request
        per = self.rows_per_replica(n)
        log = self.cluster.log = [] if WORKERS.in_worker else None
        losses, grads = [], []
        for d in range(lo, hi):
            params = self._params()
            losses.append(self._replica_forward_backward(
                batch, gas, d, per, first))
            grads.append([p.grad for p in params])
        return losses, grads, log

    def _params(self) -> list:
        """The seated parameters, gradients cleared, read-only in a worker."""
        for p in self.optimizer.params:
            p.grad, p.data.flags.writeable = None, not WORKERS.in_worker
        return self.optimizer.params

    def _halves(self, lo: int, hi: int, request: tuple) -> tuple:
        """Half ``lo`` of a row split of the one-replica, one-microbatch
        step ``request``, as :meth:`_replicas` returns it (both halves,
        ``[0, 2]``, is the whole step, here).  The kept worker (half 1) is
        sent and runs the first ``n // 2`` rows, this process (half 0) the
        rest; each reduction over rows of a parameter's gradient keeps the
        serial order across them (:func:`repro.kernels.fused._over_rows`),
        so the gradients this process is left with are the serial step's.

        The loss is ``_loss`` over the whole batch, on the network output
        with the other half's rows beside this half's: the worker sends
        its rows first, so this process computes the serial loss value,
        and the worker puts zeros where this process's rows go, whose
        terms it never reads.  A mean seeds every row's gradient with the whole
        batch's ``1 / count`` — ``mean()`` is ``sum() * (1.0 / count)`` —
        so each half's rows get the serial step's seed: a loop whose loss
        is not each row's own terms clears ``rowwise_loss``."""
        if hi - lo == 2:
            return self._replicas(0, 1, request)
        batch, gas, _, n = request
        params = self._params()
        worker = WORKERS.in_worker

        def loss_fn(pred: Tensor, _micro: slice) -> Tensor:
            if worker:
                WORKERS.put(pred.data)
                parts = [pred, Tensor(np.zeros((n - n // 2,) + pred.shape[1:],
                                               pred.dtype))]
            else:
                parts = [Tensor(WORKERS.take()), pred]
            return self._loss(concat(parts), slice(0, n),
                              *batch.extra) * (1.0 / gas)

        with _span("train.forward_backward", category="train", dp_rank=0), \
                scoped(_ROW_SPLIT, WORKERS):
            loss = self.pipelines[0].forward_backward(
                *batch.inputs, loss_fn, n_micro=1)
        if worker:
            return [], [], []
        return [loss], [[p.grad for p in params]], []

    def _replica_forward_backward(self, batch: Batch, gas: int, d: int,
                                  per: int, first: int) -> float:
        """Replica ``d``'s rows of ``batch``, whose inputs start at global
        row ``first``, through its pipeline."""
        start = d * per

        def loss_fn(pred: Tensor, micro: slice) -> Tensor:
            rows = slice(start + micro.start, start + micro.stop)
            return self._loss(pred, rows, *batch.extra) * (1.0 / gas)

        with _span("train.forward_backward", category="train", dp_rank=d):
            return self.pipelines[d].forward_backward(
                *(a[start - first:start - first + per] for a in batch.inputs),
                loss_fn, n_micro=gas)

    def _update(self, images: int, grads: list[list]) -> None:
        """The replicas' gradient sets ring-allreduced (in FP64) into the
        model's, the sharded AdamW step at the scheduled LR, then the EMA."""
        if self.topology.dp > 1:
            for i, p in enumerate(self.optimizer.params):
                p.grad = self.cluster.allreduce(self.dp_group, [
                    g[i] if g[i] is not None else np.zeros_like(p.data)
                    for g in grads]) / self.topology.dp
        self.optimizer.lr = (self.schedule.lr_at(self.images_seen)
                             * self.lr_backoff)
        self.optimizer.step()
        self.images_seen += images
        if self.ema is not None:
            self.ema.update(images_per_step=images)

    # -- NaN/Inf guard ----------------------------------------------------
    def _skip_poisoned_step(self, value: float) -> None:
        self.skipped_steps += 1
        self._clean_streak = 0
        self.lr_backoff *= LR_BACKOFF_FACTOR
        _count("train.skipped_steps", "updates skipped by the NaN/Inf guard")
        _gauge("train.lr_backoff", "NaN-guard LR multiplier",
               self.lr_backoff)
        _record_event("train.step_skipped", subsystem="train",
                      severity="warning", step=len(self.history),
                      loss=repr(value), lr_backoff=self.lr_backoff)
        with _span("resilience.nonfinite_loss", category="resilience",
                   loss=repr(value), lr_backoff=self.lr_backoff):
            pass

    def _recover_lr_backoff(self) -> None:
        if self.lr_backoff >= 1.0:
            return
        self._clean_streak += 1
        if self._clean_streak >= LR_RECOVER_STEPS:
            self._clean_streak = 0
            self.lr_backoff = min(1.0, self.lr_backoff / LR_BACKOFF_FACTOR)

    def _record_step_metrics(self, loss_value: float, images: int) -> None:
        """Per-step telemetry (loss / LR / grad norm / EMA decay) plus the
        online health detectors.  The gradient norm is only computed while
        metrics or health are enabled, so the disabled path stays exactly
        the seed numerics at zero extra cost."""
        # The one derived-value guard: nobody listening, no gradient norm.
        monitor = _obs_health()
        if _obs_metrics() is None and monitor is None:
            return
        sq = 0.0
        for p in self.optimizer.params:
            if p.grad is not None:
                sq += float(np.sum(np.square(p.grad, dtype=np.float64)))
        grad_norm = float(np.sqrt(sq))
        step = len(self.history) - 1
        _count("train.steps", "optimization steps")
        _count("train.images", "images consumed", images)
        _gauge("train.loss", "last training loss", loss_value)
        _gauge("train.lr", "current learning rate", self.optimizer.lr)
        _gauge("train.grad_norm", "global gradient L2 norm", grad_norm)
        if self.ema is not None:
            _gauge("train.ema_decay", "per-step EMA decay factor",
                   self.ema.decay_for(images))
        _observe("train.loss_hist", "training loss distribution", loss_value,
                 buckets=(0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0))
        if monitor is not None:
            monitor.observe_step(step, loss_value, grad_norm=grad_norm)
        _record_event("train.step", subsystem="train", step=step,
                      loss=loss_value, grad_norm=grad_norm)

    # -- loop state: payload / restore, checkpoint / resume -----------------
    def state_payload(self) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
        """``(shards, extra)`` — the *complete* loop state: weights,
        optimizer moments and step count, EMA, ``images_seen``, loss
        history, NaN-guard state and every generator state, so
        :meth:`restore` + more steps replays bit-exactly.  ``shards``, the
        :func:`~repro.train.write_sharded_checkpoint` layout (moments
        ``m/<i>``, ``v/<i>`` for parameter ``i`` whatever the DP degree),
        aliases the live arrays (copy what you keep); ``extra`` is
        JSON-ready."""
        extra = {
            "step": len(self.history),
            "history": list(self.history),
            "lr_backoff": self.lr_backoff,
            "skipped_steps": self.skipped_steps,
            "clean_streak": self._clean_streak,
            "rng": {"batch": self.rng_batch.bit_generator.state,
                    "t": [rng.bit_generator.state for rng in self.rngs_t],
                    "z": [rng.bit_generator.state for rng in self.rngs_z]},
        }
        opt = self.optimizer
        shards = {"meta": {"images_seen": np.asarray(self.images_seen)},
                  "model": {name: p.data
                            for name, p in self.model.named_parameters()},
                  "opt": {"step_count": np.asarray(opt.step_count),
                          **{f"{k}/{i}": a for i, pair in enumerate(zip(
                              opt.exp_avg, opt.exp_avg_sq))
                             for k, a in zip("mv", pair)}}}
        if self.ema is not None:
            shards["ema"] = dict(self.ema.shadow)
        return shards, extra

    def restore(self, shards: dict[str, dict[str, np.ndarray]],
                extra: dict, where: str = "payload") -> None:
        """Load a :meth:`state_payload` into this engine (values are
        copied in).  Works across DP degrees: the weights are every
        replica's, and the noise generators are restored for the replicas
        that exist (a degraded grid keeps the surviving replicas' streams
        bit-exact).  A generation that does not fit — another model, no
        optimizer state, a moment or EMA array missing or of another
        shape — raises :class:`~repro.train.CheckpointError` naming
        ``where``; a guarded engine re-retains from the restored state at
        its next step."""
        opt = shards.get("opt", {})
        if "step_count" not in opt:
            raise CheckpointError(f"checkpoint {where} has no optimizer "
                                  "state (saved model-only, or with an "
                                  "older format)")
        live = self.state_payload()[0]
        unexpected = sorted(set(shards.get("model", {})) - set(live["model"]))
        if unexpected:
            raise CheckpointError(f"checkpoint {where} does not fit the "
                                  f"model: no parameter {unexpected[0]}")
        for section, arrays in live.items():
            saved = shards.get(section, {})
            for key, array in arrays.items():
                if key not in saved:
                    raise CheckpointError(
                        f"checkpoint {where} has no {section}/{key}")
                if saved[key].shape != array.shape:
                    raise CheckpointError(
                        f"checkpoint {where}: {section}/{key} has shape "
                        f"{saved[key].shape}, the live one {array.shape}")
        for section, arrays in live.items():    # all checked: copy in
            for key, array in arrays.items():
                array[...] = shards[section][key]
        self.optimizer.step_count = int(opt["step_count"])
        self.images_seen = float(shards["meta"]["images_seen"])
        self.history = [float(v) for v in extra.get("history", [])]
        self.lr_backoff = float(extra.get("lr_backoff", 1.0))
        self.skipped_steps = int(extra.get("skipped_steps", 0))
        self._clean_streak = int(extra.get("clean_streak", 0))
        rng = extra.get("rng", {})
        if "batch" in rng:
            self.rng_batch.bit_generator.state = rng["batch"]
        for key, rngs in (("t", self.rngs_t), ("z", self.rngs_z)):
            for gen, state in zip(rngs, rng.get(key, [])):
                gen.bit_generator.state = state
        # only a saved checkpoint carries the rollback tally: the guard
        # restores a bare payload, so a rollback never rewinds its own count
        self.step_retries = int(extra.get("step_retries", self.step_retries))
        if self.guard is not None:
            self.guard.retained = None

    def held_out_loss(self, batch_size: int, n_batches: int,
                      seed: int) -> float:
        """Mean loss of ``flow``'s objective over held-out validation
        samples, drawn from generators fixed by ``seed``: successive calls
        (and a faulted and a fault-free run) are comparable."""
        rng_batch = np.random.default_rng(seed)
        rng_t = np.random.default_rng(seed + 1)
        rng_z = np.random.default_rng(seed + 2)
        pool, losses = self.archive.split_indices("val"), []
        for _ in range(n_batches):
            indices = rng_batch.choice(pool, size=batch_size, replace=False)
            cond, residual, forc = self.archive.training_batch(
                indices, self.state_norm, self.residual_norm,
                self.forcing_norm)
            x_in, t_in, target, out_scale = self.flow.network_pair(
                residual, rng_t, rng_z)
            with _span("train.validation_batch", category="train"), \
                    no_grad():
                pred = self.model(Tensor(x_in), Tensor(t_in), Tensor(cond),
                                  Tensor(forc))
                # the flows' regression, whatever this loop optimizes
                losses.append(TrainingEngine._loss(
                    self, pred, slice(None), target, out_scale).item())
        mean = float(np.mean(losses))
        _gauge("train.val_loss", "last validation loss", mean)
        return mean

    def save(self, directory: str) -> str:
        """Atomic sharded checkpoint of :meth:`state_payload` plus the
        rollback tally and the lineage block (model config, seed,
        parameterization and the digest-stamped normalizer stats it
        trained under)."""
        shards, extra = self.state_payload()
        extra["step_retries"] = self.step_retries
        extra["lineage"] = checkpoint_lineage(
            self.model.config, self.state_norm, self.residual_norm,
            self.forcing_norm, seed=self.seed,
            parameterization=type(self.flow).__name__)
        path = write_sharded_checkpoint(directory, shards, extra=extra)
        _count("train.checkpoints", "sharded checkpoints written")
        _record_event("checkpoint.save", subsystem="train", path=path,
                      step=len(self.history))
        return path

    def load(self, directory: str) -> float:
        """Restore a :meth:`save` checkpoint (checksum-verified); returns
        ``images_seen``."""
        self.restore(*read_sharded_checkpoint(directory), where=directory)
        return self.images_seen


@dataclass(frozen=True)
class TrainerConfig:
    """Training-run hyperparameters (paper defaults, rescaled for toy runs)."""

    batch_size: int = 8
    peak_lr: float = 5e-4
    warmup_images: float = 200.0
    total_images: float = 20_000.0
    decay_images: float = 1_000.0
    seed: int = 0
    #: run every step under the SDC guard (state audit + rollback/retry).
    guarded: bool = False
    #: rollback-and-recompute attempts per step before escalating.
    max_step_retries: int = 2


class Trainer(TrainingEngine):
    """Trains an :class:`~repro.model.Aeris` on a synthetic reanalysis,
    drawing its own batches.

    ``flow`` is the parameterization, the one thing a baseline changes:
    any value with ``network_pair(residual, rng_t, rng_z) -> (x_in, t_in,
    target, out_scale)`` for training and ``sample_residuals(network,
    shape, rngs, solver_config)`` for :meth:`forecaster`
    (:class:`TrigFlow`, and ``EdmConfig`` / ``PointRegression`` in
    :mod:`repro.baselines`)."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig(),
                 flow=TrigFlow(), injector=None):
        super().__init__(
            model, ONE_RANK,
            schedule=WarmupConstantDecay(
                peak_lr=config.peak_lr, warmup_images=config.warmup_images,
                total_images=config.total_images,
                decay_images=config.decay_images),
            weight_decay=WEIGHT_DECAY, ema_halflife=EMA_HALFLIFE_IMAGES,
            seed=config.seed, noise_offsets=(1, 2), injector=injector)
        self._use_archive(archive)
        self.config = config
        self.flow = flow
        self.guard = StepGuard(self) if config.guarded else None

    def train_step(self) -> float:
        return self._run(self._draw)

    def _draw(self) -> Batch:
        indices = self.rng_batch.choice(self.archive.split_indices("train"),
                                        size=self.config.batch_size,
                                        replace=False)
        cond, residual, forc = self.archive.training_batch(
            indices, self.state_norm, self.residual_norm, self.forcing_norm)
        x_in, t_in, target, out_scale = self.flow.network_pair(
            residual, self.rng_t, self.rng_z)
        return Batch((x_in, t_in, cond, forc), (target, out_scale))

    def fit(self, n_steps: int) -> list[float]:
        """Run ``n_steps``; returns the loss history."""
        for _ in range(n_steps):
            self.train_step()
        return self.history

    def validation_loss(self) -> float:
        """:meth:`held_out_loss` at the training batch size."""
        return self.held_out_loss(self.config.batch_size, VALIDATION_BATCHES,
                                  VALIDATION_SEED)

    # -- inference export ------------------------------------------------------
    def inference_model(self) -> Aeris:
        """A copy of the model in ``eval()`` mode with the EMA weights, per
        the paper ("using only these weights during inference")."""
        model = Aeris(self.model.config)
        self.ema.copy_to(model)
        model.eval()
        return model

    def forecaster(self, solver_config: SolverConfig = SolverConfig()
                   ) -> ResidualForecaster:
        """The forecaster this parameterization samples with
        (``solver_config`` is the TrigFlow solver's; the baselines'
        samplers do not read it)."""
        return ResidualForecaster(
            model=self.inference_model(),
            state_norm=self.state_norm,
            residual_norm=self.residual_norm,
            forcing_fn=lambda i: self.archive.forcing_provider(
                self.archive.gcm_step(i)),
            forcing_norm=self.forcing_norm,
            flow=self.flow,
            solver_config=solver_config)
