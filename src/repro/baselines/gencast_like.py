"""GenCast-like baseline: EDM-parameterized diffusion on the same backbone.

GenCast (Price et al.) trains a diffusion model under the EDM framework
(Karras et al.): additive noising ``x_sigma = x0 + sigma * z``, a
preconditioned denoiser

    D(x; sigma) = c_skip x + c_out * F(c_in x, c_noise),

a log-normal noise prior, and Heun's second-order sampler over a rho-spaced
sigma schedule.  AERIS differs by using TrigFlow (spherical interpolation +
velocity prediction).  Running both parameterizations over the identical
Swin backbone isolates the contribution of the parameterization — the
comparison Figure 5a draws against GenCast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import SyntheticReanalysis
from ..diffusion import member_rngs
from ..model import Aeris
from ..tensor import Tensor, no_grad
from ..train.trainer import Trainer, TrainerConfig

__all__ = ["EdmConfig", "EdmTrainer", "EdmForecaster"]


# EDM constants (Karras et al. defaults, as used by GenCast).
SIGMA_DATA = 1.0
SIGMA_MIN = 0.02
SIGMA_MAX = 80.0
P_MEAN = -1.2     # log-normal noise prior
P_STD = 1.2
RHO = 7.0


@dataclass(frozen=True)
class EdmConfig:
    """The EDM parameterization at the constants above; what a caller
    varies is the sampler's step count."""

    n_sample_steps: int = 10

    # -- preconditioning -----------------------------------------------------
    def c_skip(self, sigma: np.ndarray) -> np.ndarray:
        return SIGMA_DATA ** 2 / (sigma ** 2 + SIGMA_DATA ** 2)

    def c_out(self, sigma: np.ndarray) -> np.ndarray:
        return sigma * SIGMA_DATA / np.sqrt(sigma ** 2 + SIGMA_DATA ** 2)

    def c_in(self, sigma: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt(sigma ** 2 + SIGMA_DATA ** 2)

    def c_noise(self, sigma: np.ndarray) -> np.ndarray:
        return np.log(sigma) / 4.0

    def loss_weight(self, sigma: np.ndarray) -> np.ndarray:
        return (sigma ** 2 + SIGMA_DATA ** 2) / (sigma * SIGMA_DATA) ** 2

    def sample_sigma(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(P_MEAN + P_STD * rng.normal(size=n)
                      ).astype(np.float32)

    def sigma_schedule(self) -> np.ndarray:
        """Decreasing rho-spaced sigmas, ending exactly at 0."""
        i = np.arange(self.n_sample_steps)
        inv = 1.0 / RHO
        sig = (SIGMA_MAX ** inv + i / (self.n_sample_steps - 1)
               * (SIGMA_MIN ** inv - SIGMA_MAX ** inv)) ** RHO
        return np.append(sig, 0.0)

    def network_pair(self, x0: np.ndarray, rng_sigma: np.random.Generator,
                     rng_z: np.random.Generator):
        """``(x_in, t_in, target, out_scale)`` for a batch of clean
        samples (the shape of :meth:`repro.diffusion.TrigFlow.network_pair`):
        the network regresses the preconditioned residual target
        ``(x0 − c_skip x) / c_out``, with unit effective weight."""
        sigma = self.sample_sigma(rng_sigma, x0.shape[0])
        z = rng_z.normal(size=x0.shape).astype(np.float32)
        sig4 = sigma[:, None, None, None]
        x_noisy = x0 + sig4 * z
        target = (x0 - self.c_skip(sig4) * x_noisy) / self.c_out(sig4)
        return self.c_in(sig4) * x_noisy, self.c_noise(sigma), target, 1.0


class EdmTrainer(Trainer):
    """Trains the backbone as an EDM denoiser of standardized residuals:
    :class:`~repro.train.Trainer`'s loop (checkpoints, guards, telemetry)
    with an :class:`EdmConfig` as the parameterization."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig(),
                 edm: EdmConfig = EdmConfig()):
        super().__init__(model, archive, config, flow=edm)

    def forecaster(self, use_ema: bool = True) -> "EdmForecaster":
        return EdmForecaster(model=self.inference_model(use_ema),
                             archive=self.archive,
                             state_norm=self.state_norm,
                             residual_norm=self.residual_norm,
                             forcing_norm=self.forcing_norm, edm=self.flow)


@dataclass
class EdmForecaster:
    """Heun-sampler ensemble forecaster (GenCast inference scheme)."""

    model: Aeris
    archive: SyntheticReanalysis
    state_norm: object
    residual_norm: object
    forcing_norm: object
    edm: EdmConfig = EdmConfig()

    def _denoise(self, x: np.ndarray, sigma: float, cond: np.ndarray,
                 forc: np.ndarray) -> np.ndarray:
        edm = self.edm
        s = np.asarray(sigma, dtype=np.float32)
        with no_grad():
            f = self.model(Tensor((edm.c_in(s) * x)[None]),
                           Tensor(np.array([edm.c_noise(s)], np.float32)),
                           Tensor(cond[None]), Tensor(forc[None])).numpy()[0]
        return edm.c_skip(s) * x + edm.c_out(s) * f

    def _sample_residual(self, cond: np.ndarray, forc: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        edm = self.edm
        sigmas = edm.sigma_schedule()
        x = (sigmas[0] * rng.normal(size=cond.shape)).astype(np.float32)
        for i in range(len(sigmas) - 1):
            s, s_next = float(sigmas[i]), float(sigmas[i + 1])
            d = (x - self._denoise(x, s, cond, forc)) / s
            x_euler = x + (s_next - s) * d
            if s_next > 0:
                d2 = (x_euler - self._denoise(x_euler, s_next, cond, forc)) / s_next
                x = x + (s_next - s) * 0.5 * (d + d2)
            else:
                x = x_euler
        return x

    def step(self, state: np.ndarray, time_index: int,
             rng: np.random.Generator) -> np.ndarray:
        cond = self.state_norm.normalize(state)
        forc = self.forcing_norm.normalize(
            self.archive.forcing_provider(self.archive.gcm_step(time_index)))
        residual = self._sample_residual(cond, forc, rng)
        return state + self.residual_norm.denormalize(residual)

    def rollout(self, state0: np.ndarray, n_steps: int,
                rng: np.random.Generator, start_index: int = 0) -> np.ndarray:
        states = np.empty((n_steps + 1,) + state0.shape, dtype=np.float32)
        states[0] = state0
        for i in range(n_steps):
            states[i + 1] = self.step(states[i], start_index + i, rng)
        return states

    def ensemble_rollout(self, state0: np.ndarray, n_steps: int,
                         n_members: int, seed: int = 0,
                         start_index: int = 0) -> np.ndarray:
        out = np.empty((n_members, n_steps + 1) + state0.shape,
                       dtype=np.float32)
        for m, rng in enumerate(member_rngs(n_members, seed)):
            out[m] = self.rollout(state0, n_steps, rng, start_index)
        return out
