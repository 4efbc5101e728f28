"""Multi-step (autoregressive rollout) finetuning.

Paper Section VII-C: "As a consistency model, AERIS could benefit from
multi-step finetuning [87], which may yield measurable improvements to
forecast skill."  The idea (SWiFT / design-space papers the text cites):
after single-step training, finetune by unrolling the model its *own*
forecasts for K steps and applying the loss at every intermediate state, so
the network learns to correct its own accumulated errors.

Here the unroll uses the deterministic one-shot residual estimate (the mean
of the learned residual distribution, i.e. the ``t -> 0`` consistency jump
with shared noise), which keeps the computational graph differentiable
through all K steps in our autograd engine.  The finetuner is the training
engine (:class:`~repro.train.TrainingEngine`) at one rank with the K-step
unroll as its loss: the engine's one-stage pipeline runs the first
forward, :meth:`MultistepFinetuner._loss` the other ``K - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import SyntheticReanalysis
from ..diffusion.loss import weighted_velocity_loss
from ..diffusion.trigflow import TrigFlow
from ..model import Aeris
from ..nn import ConstantLR
from ..tensor import Tensor
from .trainer import ONE_RANK, Batch, TrainingEngine

__all__ = ["MultistepConfig", "MultistepFinetuner"]

#: Low-noise time at which the velocity is learned.
T_EVAL = 0.3


@dataclass(frozen=True)
class MultistepConfig:
    rollout_steps: int = 2     # K: autoregressive depth during finetuning
    batch_size: int = 4
    lr: float = 5e-4
    seed: int = 0


class MultistepFinetuner(TrainingEngine):
    """Finetunes a trained AERIS with K-step rollout losses."""

    #: The unroll runs the model again inside the loss, on the loss's rows:
    #: a row split would run those forwards on the whole batch in each
    #: process, so the step stays in one.
    rowwise_loss = False

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: MultistepConfig = MultistepConfig()):
        super().__init__(model, ONE_RANK, schedule=ConstantLR(config.lr),
                         weight_decay=0.0, ema_halflife=None,
                         seed=config.seed, noise_offsets=(1, 2),
                         injector=None)
        self._use_archive(archive)
        self.config = config
        self.flow = TrigFlow()

    def _mean_residual(self, pred: Tensor) -> Tensor:
        """Differentiable point residual estimate at low noise from the
        network's output at ``x_t = 0`` (the prior mean), ``t = T_EVAL``.

        At small ``t`` the consistency jump ``cos t · x_t − sin t · v``
        approaches the model's conditional-mean residual; with ``x_t = 0``
        the estimate is deterministic and gradients flow through every
        unroll step.
        """
        v = pred * self.flow.sigma_d
        return v * float(-np.sin(T_EVAL))  # cos(t)·0 − sin(t)·v

    def train_step(self) -> float:
        return self._run(self._draw)

    def _draw(self) -> Batch:
        k = self.config.rollout_steps
        archive, fields = self.archive, self.archive.fields
        valid = archive.split_indices("train")
        valid = valid[valid < valid.max() - k]
        indices = self.rng_batch.choice(valid, size=self.config.batch_size,
                                        replace=False)
        forcs = [np.stack([self.forcing_norm.normalize(
            archive.forcing_provider(archive.gcm_step(int(i) + step)))
            for i in indices]) for step in range(k)]
        targets = [self.residual_norm.normalize(
            fields[indices + step + 1] - fields[indices + step])
            for step in range(k)]
        # Normalized initial states; the network sees x_t = 0 at T_EVAL.
        state0 = self.state_norm.normalize(fields[indices])
        x_in = np.zeros(state0.shape, dtype=np.float32)
        t_in = np.full(len(indices), T_EVAL, dtype=np.float32)
        # Advance the (normalized) state with the model's own residual:
        # x_{i+1} = x_i + unnorm(residual), expressed in state-norm
        # units: + (residual_std * sigma_res + mu_res) / sigma_state.
        res_scale = self.residual_norm.std / self.state_norm.std
        res_shift = self.residual_norm.mean / self.state_norm.std
        return Batch((x_in, t_in, state0, forcs[0]),
                     (x_in, t_in, state0, np.stack(forcs), np.stack(targets),
                      res_scale, res_shift))

    def _loss(self, pred: Tensor, rows: slice, x_in: np.ndarray,
              t_in: np.ndarray, state0: np.ndarray, forcs: np.ndarray,
              targets: np.ndarray, res_scale: np.ndarray,
              res_shift: np.ndarray) -> Tensor:
        """The K-step unroll from ``pred``, the first step's output: the
        mean over steps of the residual loss, each later step a forward of
        the model on the state the earlier ones advanced."""
        k = len(targets)
        state = Tensor(state0[rows])
        total = None
        for step in range(k):
            if step:
                pred = self.model(Tensor(x_in[rows]), Tensor(t_in[rows]),
                                  state, Tensor(forcs[step][rows]))
            residual_std = self._mean_residual(pred)
            step_loss = weighted_velocity_loss(
                residual_std, targets[step][rows], self.lat_weights,
                self.var_weights)
            total = step_loss if total is None else total + step_loss
            state = (state + residual_std * Tensor(res_scale)
                     + Tensor(res_shift))
        return total * (1.0 / k)

    def fit(self, n_steps: int) -> list[float]:
        for _ in range(n_steps):
            self.train_step()
        return self.history
