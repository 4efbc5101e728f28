"""Deterministic baseline: the same Swin backbone trained with a weighted
MSE to predict the residual directly (GraphCast/Stormer-style training).

The paper's motivation for diffusion is that deterministic models "produce
blurred, poorly calibrated distributions due to spectral biases and a lack
of sensitivity to initial-condition perturbations" — this baseline exists so
the benchmarks can demonstrate that contrast (zero ensemble spread, blurrier
long-lead fields) under identical architecture and data.
"""

from __future__ import annotations

import numpy as np

from ..data import SyntheticReanalysis
from ..model import Aeris
from ..train.trainer import Trainer, TrainerConfig

__all__ = ["PointRegression", "DeterministicTrainer"]


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

    def sample_residuals(self, network, shape: tuple[int, ...], rngs,
                         solver_config) -> np.ndarray:
        """The point forecast of each of ``len(rngs)`` rows in one forward
        (the shape of :meth:`repro.diffusion.TrigFlow.sample_residuals`;
        the generators are not read)."""
        m = len(rngs)
        return network(np.zeros((m,) + tuple(shape), dtype=np.float32),
                       np.zeros(m, dtype=np.float32))


class DeterministicTrainer(Trainer):
    """MSE training of the AERIS backbone as a point forecaster:
    :class:`~repro.train.Trainer`'s loop (checkpoints, guards, telemetry)
    and forecaster with :class:`PointRegression` as the parameterization
    (``forecaster().rollout(state0, n_steps, start_index=i)`` needs no
    generator)."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig()):
        super().__init__(model, archive, config, flow=PointRegression())
