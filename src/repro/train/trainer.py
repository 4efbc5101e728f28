"""Single-process training loop for AERIS (the distributed loop lives in
:mod:`repro.parallel.swipe`; this one is the reference implementation the
parallel engine is verified against).

Follows Section VI-B: TrigFlow objective on standardized residuals with
latitude/pressure weighting, AdamW (betas [0.85, 0.9], wd 0.01), warmup →
constant → linear-decay LR measured in images, and an EMA of parameters used
at inference.

Resilience (:mod:`repro.resilience`): the loop survives an interrupted
run and a poisoned step —

* :meth:`Trainer.save` / :meth:`Trainer.load` write/restore an atomic
  sharded checkpoint (manifest + per-array checksums) that also carries
  the data/noise generator states, so a resumed run continues
  **bit-exactly** where the original would have gone;
* ``fit(..., save_every=k)`` autosaves every ``k`` steps under
  ``checkpoint_root``;
* a NaN/Inf guard skips the optimizer/EMA update when a step's loss goes
  non-finite and multiplicatively backs off the learning rate
  (recovering after a run of clean steps) — the standard large-run
  defence against one poisoned batch destroying the weights;
* with ``TrainerConfig(guarded=True)`` every step runs under the **SDC
  guard** (:class:`repro.train.guard.StepGuard`): state audit, rollback
  to the retained clean step boundary, bounded recompute, escalation.

``save``, ``load`` and the guard's retain/rollback all go through the one
:meth:`Trainer.state_payload` / :meth:`Trainer.restore` pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..data import SyntheticReanalysis, TOY_SET
from ..diffusion import (
    ResidualForecaster,
    SolverConfig,
    TrigFlow,
    weighted_velocity_loss,
)
from ..model import Aeris
from ..nn import EMA, AdamW, WarmupConstantDecay
from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..obs.profile import health as _obs_health
from ..obs.profile import metrics as _obs_metrics
from ..obs.profile import observe as _observe
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..tensor import Tensor
from .checkpoint import (checkpoint_lineage, prune_checkpoints,
                         read_sharded_checkpoint, restore_training_shards,
                         training_shards, write_sharded_checkpoint)
from .guard import NonFiniteLoss, StepGuard

__all__ = ["TrainerConfig", "Trainer", "evaluate_validation_loss"]

#: LR multiplier applied after a non-finite (skipped) step; recovered one
#: factor at a time after ``LR_RECOVER_STEPS`` clean steps.
LR_BACKOFF_FACTOR = 0.5
LR_RECOVER_STEPS = 25

#: EMA half-life in images (the paper's one value, rescaled for toy runs).
EMA_HALFLIFE_IMAGES = 2_000.0


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


class Trainer:
    """Trains an :class:`~repro.model.Aeris` on a synthetic reanalysis.

    ``flow`` is the parameterization, the one thing a baseline changes:
    any value with ``network_pair(residual, rng_t, rng_z) -> (x_in, t_in,
    target, out_scale)`` for training and ``sample_residuals(network,
    shape, rngs, solver_config)`` for :meth:`forecaster`
    (:class:`TrigFlow`, and ``EdmConfig`` / ``PointRegression`` in
    :mod:`repro.baselines`)."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig(),
                 flow: TrigFlow = TrigFlow(), injector=None):
        if model.config.channels != len(TOY_SET):
            raise ValueError("model channel count must match the archive")
        self.model = model
        self.archive = archive
        self.config = config
        self.flow = flow
        self.state_norm = archive.state_normalizer()
        self.residual_norm = archive.residual_normalizer()
        self.forcing_norm = archive.forcing_normalizer()
        self.optimizer = AdamW(model.parameters(), lr=config.peak_lr)
        self.schedule = WarmupConstantDecay(
            peak_lr=config.peak_lr, warmup_images=config.warmup_images,
            total_images=config.total_images,
            decay_images=config.decay_images)
        self.ema = EMA(model, halflife_images=EMA_HALFLIFE_IMAGES)
        self.lat_weights = archive.grid.latitude_weights()
        self.var_weights = np.asarray(TOY_SET.kappa_weights())
        self.images_seen = 0.0
        self.rng_batch = np.random.default_rng(config.seed)
        self.rng_t = np.random.default_rng(config.seed + 1)
        self.rng_z = np.random.default_rng(config.seed + 2)
        self.history: list[float] = []
        # NaN/Inf-guard state: 1.0 while healthy, multiplied by
        # LR_BACKOFF_FACTOR per poisoned step, recovered gradually.
        self.lr_backoff = 1.0
        self.skipped_steps = 0
        self._clean_streak = 0
        self.injector = injector
        self.step_retries = 0
        self.guard = StepGuard(self) if config.guarded else None

    # -- one optimization step ------------------------------------------------
    def train_step(self) -> float:
        if self.guard is not None:
            return self.guard.run(self._step_once)
        return self._step_once()

    def _step_once(self, allow_retry: bool = False) -> float:
        cfg = self.config
        with _span("train.step", category="train", step=len(self.history)):
            with _span("train.data", category="train"):
                indices = self.rng_batch.choice(
                    self.archive.split_indices("train"),
                    size=cfg.batch_size, replace=False)
                cond, residual, forc = self.archive.training_batch(
                    indices, self.state_norm, self.residual_norm,
                    self.forcing_norm)
                x_in, t_in, target, out_scale = self.flow.network_pair(
                    residual, self.rng_t, self.rng_z)
            self.optimizer.zero_grad()
            with _span("train.forward", category="train"):
                pred = self.model(Tensor(x_in), Tensor(t_in), Tensor(cond),
                                  Tensor(forc))
                loss = weighted_velocity_loss(
                    pred * out_scale, target,
                    self.lat_weights, self.var_weights)
            with _span("train.backward", category="train"):
                loss.backward()
            value = loss.item()
            if not np.isfinite(value):
                if allow_retry:
                    raise NonFiniteLoss(f"non-finite loss {value!r}")
                # Poisoned step: skip the update entirely (no optimizer
                # step, no EMA blend, no images consumed) and back the LR
                # off so a marginal-stability run eases away from the edge.
                self._skip_poisoned_step(value)
            else:
                with _span("train.optimizer", category="train"):
                    self.optimizer.lr = (
                        self.schedule.lr_at(self.images_seen)
                        * self.lr_backoff)
                    self.optimizer.step()
                    self.images_seen += cfg.batch_size
                    self.ema.update(self.model,
                                    images_per_step=cfg.batch_size)
                self._recover_lr_backoff()
        self.history.append(value)
        self._record_step_metrics(value)
        return value

    # -- NaN/Inf guard --------------------------------------------------------
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

    def _record_step_metrics(self, loss_value: float) -> None:
        """Per-step telemetry (loss / LR / grad norm / EMA decay) plus the
        online health detectors.  The gradient norm is only computed while
        metrics or health are enabled, so the disabled path stays exactly
        the seed numerics at zero extra cost."""
        # The one derived-value guard: nobody listening, no gradient norm.
        monitor = _obs_health()
        if _obs_metrics() is None and monitor is None:
            return
        cfg = self.config
        sq = 0.0
        for p in self.model.parameters():
            if p.grad is not None:
                sq += float(np.sum(np.square(p.grad, dtype=np.float64)))
        grad_norm = float(np.sqrt(sq))
        step = len(self.history) - 1
        _count("train.steps", "optimization steps")
        _count("train.images", "images consumed", cfg.batch_size)
        _gauge("train.loss", "last training loss", loss_value)
        _gauge("train.lr", "current learning rate", self.optimizer.lr)
        _gauge("train.grad_norm", "global gradient L2 norm", grad_norm)
        _gauge("train.ema_decay", "per-step EMA decay factor",
               self.ema.decay_for(cfg.batch_size))
        _observe("train.loss_hist", "training loss distribution", loss_value,
                 buckets=(0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0))
        if monitor is not None:
            monitor.observe_step(step, loss_value, grad_norm=grad_norm)
        _record_event("train.step", subsystem="train", step=step,
                      loss=loss_value, grad_norm=grad_norm)

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

    # -- loop state: payload / restore, checkpoint / resume ---------------------
    def _rngs(self) -> dict[str, np.random.Generator]:
        return {"batch": self.rng_batch, "t": self.rng_t, "z": self.rng_z}

    def state_payload(self) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
        """``(shards, extra)`` — the *complete* loop state: weights,
        optimizer moments and step count, EMA, ``images_seen``, loss
        history, NaN-guard state and all three generator states, so
        :meth:`restore` + ``fit`` replays bit-exactly.  ``shards`` is the
        :func:`~repro.train.write_sharded_checkpoint` layout and aliases
        the live arrays (copy what you keep); ``extra`` is JSON-ready.
        """
        extra = {
            "step": len(self.history),
            "history": list(self.history),
            "lr_backoff": self.lr_backoff,
            "skipped_steps": self.skipped_steps,
            "clean_streak": self._clean_streak,
            "rng": {name: rng.bit_generator.state
                    for name, rng in self._rngs().items()},
        }
        return training_shards(self.model, self.optimizer, self.ema,
                               self.images_seen), extra

    def restore(self, shards: dict[str, dict[str, np.ndarray]],
                extra: dict, where: str = "payload") -> None:
        """Load a :meth:`state_payload` into this trainer (values are
        copied in).  A guarded trainer re-retains from the restored
        state at its next step."""
        self.images_seen = restore_training_shards(
            shards, where, self.model, self.optimizer, self.ema)
        self.history = [float(v) for v in extra.get("history", [])]
        self.lr_backoff = float(extra.get("lr_backoff", 1.0))
        self.skipped_steps = int(extra.get("skipped_steps", 0))
        self._clean_streak = int(extra.get("clean_streak", 0))
        for name, state in extra.get("rng", {}).items():
            self._rngs()[name].bit_generator.state = state
        # only a saved checkpoint carries the rollback tally: the guard
        # restores a bare payload, so a rollback never rewinds its own count
        self.step_retries = int(extra.get("step_retries", self.step_retries))
        if self.guard is not None:
            self.guard.retained = None

    def save(self, directory: str) -> str:
        """Atomic sharded checkpoint of :meth:`state_payload` plus the
        rollback tally and the lineage block (config + digest-stamped
        normalizer stats)."""
        shards, extra = self.state_payload()
        extra["step_retries"] = self.step_retries
        extra["lineage"] = checkpoint_lineage(
            self.model.config, self.state_norm, self.residual_norm,
            self.forcing_norm, seed=self.config.seed,
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

    def validation_loss(self, n_batches: int = 4, seed: int = 1234) -> float:
        """Mean weighted diffusion loss over held-out validation samples.

        Uses fixed generators so successive calls are comparable (the same
        noise levels and noise fields are drawn each time).
        """
        mean = evaluate_validation_loss(
            self.model, self.archive, self.flow, self.lat_weights,
            self.var_weights, self.state_norm, self.residual_norm,
            self.forcing_norm, batch_size=self.config.batch_size,
            n_batches=n_batches, seed=seed)
        _gauge("train.val_loss", "last validation loss", mean)
        return mean

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


def evaluate_validation_loss(model: Aeris, archive: SyntheticReanalysis,
                             flow: TrigFlow, lat_weights: np.ndarray,
                             var_weights: np.ndarray, state_norm,
                             residual_norm, forcing_norm,
                             batch_size: int = 8, n_batches: int = 4,
                             seed: int = 1234) -> float:
    """Mean weighted diffusion loss over held-out validation samples.

    Standalone so both the reference :class:`Trainer` and the elastic
    supervisor (:mod:`repro.resilience.supervisor`) score models with the
    *same* fixed-seed evaluation — that is what chaos tests compare
    between faulted and fault-free runs.
    """
    from ..tensor import no_grad
    rng_batch = np.random.default_rng(seed)
    rng_t = np.random.default_rng(seed + 1)
    rng_z = np.random.default_rng(seed + 2)
    indices_pool = archive.split_indices("val")
    losses = []
    for _ in range(n_batches):
        indices = rng_batch.choice(indices_pool, size=batch_size,
                                   replace=False)
        cond, residual, forc = archive.training_batch(
            indices, state_norm, residual_norm, forcing_norm)
        x_in, t_in, target, out_scale = flow.network_pair(residual, rng_t,
                                                          rng_z)
        with _span("train.validation_batch", category="train"), no_grad():
            pred = model(Tensor(x_in), Tensor(t_in), Tensor(cond),
                         Tensor(forc))
            loss = weighted_velocity_loss(
                pred * out_scale, target, lat_weights, var_weights)
        losses.append(loss.item())
    return float(np.mean(losses))
