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
from ..model import Aeris
from ..train.trainer import Trainer, TrainerConfig

__all__ = ["EdmConfig", "EdmTrainer"]


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

    # -- sampling ------------------------------------------------------------
    def denoise(self, network, x: np.ndarray, sigma: float) -> np.ndarray:
        """The preconditioned denoiser ``D(x; sigma)`` over ``(M, ...)``
        rows; ``network(x_in, t_in)`` is the conditioned call of
        :func:`repro.diffusion.sampler.bound_network`."""
        s = np.asarray(sigma, dtype=np.float32)
        f = network(self.c_in(s) * x,
                    np.full(x.shape[0], self.c_noise(s), dtype=np.float32))
        return self.c_skip(s) * x + self.c_out(s) * f

    def sample_residuals(self, network, shape: tuple[int, ...], rngs,
                         solver_config) -> np.ndarray:
        """One standardized residual per generator, ``(M,) + shape``, by
        Heun's second-order sampler over :meth:`sigma_schedule` (GenCast's
        inference scheme; the shape of
        :meth:`repro.diffusion.TrigFlow.sample_residuals` — the step count
        is ``n_sample_steps``, not the TrigFlow solver's).  Each member
        draws its initial noise from its own generator; every denoiser
        evaluation is one stacked forward."""
        sigmas = self.sigma_schedule()
        x = np.stack([(sigmas[0] * rng.normal(size=shape)).astype(np.float32)
                      for rng in rngs])
        for i in range(len(sigmas) - 1):
            s, s_next = float(sigmas[i]), float(sigmas[i + 1])
            d = (x - self.denoise(network, x, s)) / s
            x_euler = x + (s_next - s) * d
            if s_next > 0:
                d2 = (x_euler - self.denoise(network, x_euler, s_next)) / s_next
                x = x + (s_next - s) * 0.5 * (d + d2)
            else:
                x = x_euler
        return x


class EdmTrainer(Trainer):
    """Trains the backbone as an EDM denoiser of standardized residuals:
    :class:`~repro.train.Trainer`'s loop (checkpoints, guards, telemetry)
    and forecaster with an :class:`EdmConfig` as the parameterization."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig(),
                 edm: EdmConfig = EdmConfig()):
        super().__init__(model, archive, config, flow=edm)
