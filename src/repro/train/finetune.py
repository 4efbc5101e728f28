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
through all K steps in our autograd engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import SyntheticReanalysis, TOY_SET
from ..diffusion import TrigFlow, weighted_velocity_loss
from ..model import Aeris
from ..nn import AdamW
from ..tensor import Tensor

__all__ = ["MultistepConfig", "MultistepFinetuner"]

#: Low-noise time at which the velocity is learned.
T_EVAL = 0.3


@dataclass(frozen=True)
class MultistepConfig:
    rollout_steps: int = 2     # K: autoregressive depth during finetuning
    batch_size: int = 4
    lr: float = 5e-4
    seed: int = 0


class MultistepFinetuner:
    """Finetunes a trained AERIS with K-step rollout losses."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: MultistepConfig = MultistepConfig()):
        if model.config.channels != len(TOY_SET):
            raise ValueError("model channels must match the archive")
        self.model = model
        self.archive = archive
        self.config = config
        self.flow = TrigFlow()
        self.state_norm = archive.state_normalizer()
        self.residual_norm = archive.residual_normalizer()
        self.forcing_norm = archive.forcing_normalizer()
        self.optimizer = AdamW(model.parameters(), lr=config.lr,
                               weight_decay=0.0)
        self.lat_weights = archive.grid.latitude_weights()
        self.var_weights = np.asarray(TOY_SET.kappa_weights())
        self.rng = np.random.default_rng(config.seed)
        self.history: list[float] = []

    def _mean_residual(self, cond: Tensor, forc: Tensor) -> Tensor:
        """Differentiable point residual estimate at low noise.

        At small ``t`` the consistency jump ``cos t · x_t − sin t · v``
        approaches the model's conditional-mean residual; we evaluate with
        ``x_t = 0`` (the prior mean) so the estimate is deterministic and
        gradients flow through every unroll step.
        """
        batch = cond.shape[0]
        x_t = Tensor(np.zeros(cond.shape, dtype=np.float32))
        t = Tensor(np.full(batch, T_EVAL, dtype=np.float32))
        v = self.model(x_t, t, cond, forc) * self.flow.sigma_d
        return v * float(-np.sin(T_EVAL))  # cos(t)·0 − sin(t)·v

    def train_step(self) -> float:
        cfg = self.config
        k = cfg.rollout_steps
        valid = self.archive.split_indices("train")
        valid = valid[valid < valid.max() - k]
        indices = self.rng.choice(valid, size=cfg.batch_size, replace=False)
        self.optimizer.zero_grad()
        # Normalized initial states.
        state = Tensor(self.state_norm.normalize(
            self.archive.fields[indices]))
        total = None
        for step in range(k):
            forc = Tensor(np.stack([
                self.forcing_norm.normalize(self.archive.forcing_provider(
                    self.archive.gcm_step(int(i) + step)))
                for i in indices]))
            residual_std = self._mean_residual(state, forc)
            target = self.residual_norm.normalize(
                self.archive.fields[indices + step + 1]
                - self.archive.fields[indices + step])
            loss = weighted_velocity_loss(residual_std, target,
                                          self.lat_weights, self.var_weights)
            total = loss if total is None else total + loss
            # Advance the (normalized) state with the model's own residual:
            # x_{i+1} = x_i + unnorm(residual), expressed in state-norm
            # units: + (residual_std * sigma_res + mu_res) / sigma_state.
            res_scale = Tensor(self.residual_norm.std / self.state_norm.std)
            res_shift = Tensor(self.residual_norm.mean / self.state_norm.std)
            state = state + residual_std * res_scale + res_shift
        total = total * (1.0 / k)
        total.backward()
        self.optimizer.step()
        value = total.item()
        self.history.append(value)
        return value

    def fit(self, n_steps: int) -> list[float]:
        for _ in range(n_steps):
            self.train_step()
        return self.history
