"""The one training engine, and its single-process constructor.

:class:`TrainingEngine` owns everything about a step but the loss:
zero-grad; forward and backward through one
:class:`~repro.parallel.AerisPipeline` per DP replica of a
:class:`~repro.parallel.RankTopology`; the DP allreduce; the ZeRO-1 AdamW
update at its schedule's learning rate; the optional EMA; the NaN/Inf
guard (skip the update, back the LR off); the optional SDC guard
(:class:`~repro.train.guard.StepGuard`); one ``state_payload`` /
``restore`` pair, so a resumed run continues **bit-exactly**; metrics and
spans.  A step optimizes the :class:`Batch` its constructor hands it:
:class:`Trainer` (the paper's recipe, Section VI-B, at one rank, where
the pipeline is one ``Aeris.forward`` and ZeRO-1 is plain AdamW; the
baselines change its ``flow``), :class:`~repro.parallel.SwipeEngine`,
:class:`~repro.train.MultistepFinetuner` and
:class:`~repro.diffusion.ConsistencyDistiller`.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..data import SyntheticReanalysis, TOY_SET
from ..diffusion.loss import weighted_velocity_loss
from ..diffusion.sampler import ResidualForecaster
from ..diffusion.solver import SolverConfig
from ..diffusion.trigflow import TrigFlow
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
from ..parallel.data_parallel import allreduce_gradients
from ..parallel.pipeline import AerisPipeline
from ..parallel.topology import RankTopology
from ..parallel.zero import ZeroOptimizer
from ..tensor import Tensor, no_grad
from .checkpoint import (checkpoint_lineage, prune_checkpoints,
                         read_sharded_checkpoint, restore_training_shards,
                         training_shards, write_sharded_checkpoint)
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


class Batch(NamedTuple):
    """One step's work: the network inputs ``(x_in, t_in, cond, forc)``
    over the global batch, and ``loss(pred, rows)``, the loss of the
    network output ``pred`` for global batch rows ``rows`` (a slice)."""

    inputs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    loss: Callable[[Tensor, slice], Tensor]


class TrainingEngine:
    """Optimizes ``replicas`` (one per DP rank of ``topology``, identical
    weights) with the losses of the batches each step draws.

    ``schedule.lr_at(images_seen)`` gives the learning rate;
    ``ema_halflife`` (images) keeps an EMA of the weights, ``None`` none.
    ``seed`` seeds the engine's batch stream; replica ``d``'s noise-level
    and noise-field generators are seeded ``seed + noise_offsets[i] + d``
    (one noise-level stream per replica, shared by its model-parallel
    ranks, per the paper's seeding rule).
    """

    def __init__(self, replicas: list[Aeris], topology: RankTopology, *,
                 schedule, weight_decay: float, ema_halflife: float | None,
                 seed: int, noise_offsets: tuple[int, int], injector):
        self.topology = topology
        self.replicas = list(replicas)
        self.model = self.replicas[0]
        self.injector = injector
        self.cluster = SimCluster(topology.world_size,
                                  ranks_per_node=topology.sp,
                                  injector=injector)
        self.pipelines = [
            AerisPipeline(replica, self.cluster,
                          pp_group=[topology.rank_of(d, p, 0, 0)
                                    for p in range(topology.pp)],
                          name=f"dp{d}")
            for d, replica in enumerate(self.replicas)]
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

    def _regression(self, target: np.ndarray, out_scale) -> Callable:
        """The flows' loss: the weighted MSE of ``pred * out_scale``
        against ``target``."""
        return lambda pred, rows: weighted_velocity_loss(
            pred * out_scale, target[rows], self.lat_weights,
            self.var_weights)

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
            value = self._forward_backward(batch, gas)
            if not np.isfinite(value):
                if allow_retry:
                    raise NonFiniteLoss(f"non-finite loss {value!r}")
                # Poisoned step: skip the update entirely (no optimizer
                # step, no EMA blend, no images consumed) and back the LR
                # off so a marginal-stability run eases away from the edge.
                self._skip_poisoned_step(value)
            else:
                with _span("train.optimizer", category="train"):
                    self._update(images)
                self._recover_lr_backoff()
        self.history.append(value)
        self._record_step_metrics(value, images)
        return value

    def _forward_backward(self, batch: Batch, gas: int) -> float:
        """Zero-grad, then each replica's rows through its pipeline in
        ``gas`` microbatches (each loss scaled by ``1 / gas``); the mean
        of the replicas' losses."""
        per = self.rows_per_replica(len(batch.inputs[0]))
        for replica in self.replicas:
            replica.zero_grad()
        losses = []
        for d, pipeline in enumerate(self.pipelines):
            first = d * per

            def loss_fn(pred: Tensor, micro: slice, first=first) -> Tensor:
                rows = slice(first + micro.start, first + micro.stop)
                return batch.loss(pred, rows) * (1.0 / gas)

            with _span("train.forward_backward", category="train",
                       dp_rank=d):
                losses.append(pipeline.forward_backward(
                    *(a[first:first + per] for a in batch.inputs), loss_fn,
                    n_micro=gas))
        return float(np.mean(losses))

    def _update(self, images: int) -> None:
        """DP allreduce, the sharded AdamW step at the scheduled LR, the
        updated weights mirrored to every replica, then the EMA."""
        allreduce_gradients(self.cluster, self.dp_group, self.replicas)
        self.optimizer.lr = (self.schedule.lr_at(self.images_seen)
                             * self.lr_backoff)
        self.optimizer.step()
        for replica in self.replicas[1:]:
            replica.load_state_dict(self.model.state_dict())
        self.images_seen += images
        if self.ema is not None:
            self.ema.update(self.model, images_per_step=images)

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
        for p in self.model.parameters():
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
        :meth:`restore` + more steps replays bit-exactly.  ``shards`` is
        the :func:`~repro.train.write_sharded_checkpoint` layout
        (parameter-ordered whatever the DP degree) and aliases the live
        arrays (copy what you keep); ``extra`` is JSON-ready.
        """
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
        return training_shards(self.model, self.optimizer, self.ema,
                               self.images_seen), extra

    def restore(self, shards: dict[str, dict[str, np.ndarray]],
                extra: dict, where: str = "payload") -> None:
        """Load a :meth:`state_payload` into this engine (values are
        copied in).  Works across DP degrees: every replica gets the
        weights, and the noise generators are restored for the replicas
        that exist (a degraded grid keeps the surviving replicas' streams
        bit-exact).  A generation that does not fit raises
        :class:`~repro.train.CheckpointError` naming ``where``; a guarded
        engine re-retains from the restored state at its next step."""
        self.images_seen = restore_training_shards(
            shards, where, self.model, self.optimizer, self.ema)
        for replica in self.replicas[1:]:
            replica.load_state_dict(shards["model"])
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
                losses.append(self._regression(target, out_scale)(
                    pred, slice(None)).item())
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
    #: keep only the newest N autosaved checkpoint generations (0 = all).
    keep_checkpoints: int = 0


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
                 flow: TrigFlow = TrigFlow(), injector=None):
        super().__init__(
            [model], ONE_RANK,
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
        return Batch((x_in, t_in, cond, forc),
                     self._regression(target, out_scale))

    def fit(self, n_steps: int, save_every: int = 0,
            checkpoint_root: str | None = None) -> list[float]:
        """Run ``n_steps``; optionally autosave a sharded checkpoint every
        ``save_every`` steps into ``checkpoint_root/step-<n>``."""
        if save_every < 0 or (save_every and not checkpoint_root):
            raise ValueError(f"save_every={save_every}: must be >= 0, and "
                             "a positive value needs a checkpoint_root")
        for _ in range(n_steps):
            self.train_step()
            if save_every and len(self.history) % save_every == 0:
                self.save(os.path.join(checkpoint_root,
                                       f"step-{len(self.history):08d}"))
                if self.config.keep_checkpoints:
                    prune_checkpoints(checkpoint_root,
                                      keep=self.config.keep_checkpoints)
        return self.history

    def validation_loss(self, n_batches: int = 4, seed: int = 1234) -> float:
        """:meth:`held_out_loss` at the training batch size."""
        return self.held_out_loss(self.config.batch_size, n_batches, seed)

    # -- inference export ------------------------------------------------------
    def inference_model(self, use_ema: bool = True) -> Aeris:
        """A copy of the model in ``eval()`` mode; by default with EMA
        weights, per the paper ("using only these weights during
        inference")."""
        model = Aeris(self.model.config)
        model.load_state_dict(self.model.state_dict())
        if use_ema:
            self.ema.copy_to(model)
        model.eval()
        return model

    def forecaster(self, solver_config: SolverConfig = SolverConfig(),
                   use_ema: bool = True) -> ResidualForecaster:
        """The forecaster this parameterization samples with
        (``solver_config`` is the TrigFlow solver's; the baselines'
        samplers do not read it)."""
        return ResidualForecaster(
            model=self.inference_model(use_ema),
            state_norm=self.state_norm,
            residual_norm=self.residual_norm,
            forcing_fn=lambda i: self.archive.forcing_provider(
                self.archive.gcm_step(i)),
            forcing_norm=self.forcing_norm,
            flow=self.flow,
            solver_config=solver_config)
