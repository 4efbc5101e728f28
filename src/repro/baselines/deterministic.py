"""Deterministic baseline: the same Swin backbone trained with a weighted
MSE to predict the residual directly (GraphCast/Stormer-style training).

The paper's motivation for diffusion is that deterministic models "produce
blurred, poorly calibrated distributions due to spectral biases and a lack
of sensitivity to initial-condition perturbations" — this baseline exists so
the benchmarks can demonstrate that contrast (zero ensemble spread, blurrier
long-lead fields) under identical architecture and data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import SyntheticReanalysis
from ..model import Aeris
from ..tensor import Tensor, no_grad
from ..train.trainer import Trainer, TrainerConfig

__all__ = ["PointRegression", "DeterministicTrainer", "DeterministicForecaster"]


class PointRegression:
    """The point-forecast objective as a parameterization: the diffusion
    inputs are neutralized (``x_t = 0`` and ``t = 0``), so the network
    sees exactly the conditioning (previous state + forcings) and
    regresses the standardized residual.  Draws nothing."""

    def network_pair(self, x0: np.ndarray, rng_t, rng_z):
        """``(x_in, t_in, target, out_scale)``, the shape of
        :meth:`repro.diffusion.TrigFlow.network_pair`."""
        return (np.zeros_like(x0), np.zeros(x0.shape[0], dtype=np.float32),
                x0, 1.0)


class DeterministicTrainer(Trainer):
    """MSE training of the AERIS backbone as a point forecaster:
    :class:`~repro.train.Trainer`'s loop (checkpoints, guards, telemetry)
    with :class:`PointRegression` as the parameterization."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig()):
        super().__init__(model, archive, config, flow=PointRegression())

    def forecaster(self, use_ema: bool = True) -> "DeterministicForecaster":
        return DeterministicForecaster(
            model=self.inference_model(use_ema), archive=self.archive,
            state_norm=self.state_norm, residual_norm=self.residual_norm,
            forcing_norm=self.forcing_norm)


@dataclass
class DeterministicForecaster:
    """Single-forward-pass autoregressive point forecasts."""

    model: Aeris
    archive: SyntheticReanalysis
    state_norm: object
    residual_norm: object
    forcing_norm: object

    def step(self, state: np.ndarray, time_index: int) -> np.ndarray:
        cond = self.state_norm.normalize(state)
        forc = self.forcing_norm.normalize(
            self.archive.forcing_provider(self.archive.gcm_step(time_index)))
        zeros = np.zeros_like(cond)[None]
        t = np.zeros(1, dtype=np.float32)
        with no_grad():
            pred = self.model(Tensor(zeros), Tensor(t), Tensor(cond[None]),
                              Tensor(forc[None])).numpy()[0]
        return state + self.residual_norm.denormalize(pred)

    def rollout(self, state0: np.ndarray, n_steps: int,
                start_index: int = 0) -> np.ndarray:
        states = np.empty((n_steps + 1,) + state0.shape, dtype=np.float32)
        states[0] = state0
        for i in range(n_steps):
            states[i + 1] = self.step(states[i], start_index + i)
        return states
