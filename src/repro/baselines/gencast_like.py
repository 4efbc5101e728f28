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

from ..data import SyntheticReanalysis, TOY_SET
from ..diffusion import member_rngs, weighted_velocity_loss
from ..model import Aeris
from ..nn import EMA, AdamW, WarmupConstantDecay
from ..tensor import Tensor, no_grad
from ..train.trainer import TrainerConfig

__all__ = ["EdmConfig", "EdmTrainer", "EdmForecaster"]


@dataclass(frozen=True)
class EdmConfig:
    """EDM constants (Karras et al. defaults, as used by GenCast)."""

    sigma_data: float = 1.0
    sigma_min: float = 0.02
    sigma_max: float = 80.0
    p_mean: float = -1.2     # log-normal noise prior
    p_std: float = 1.2
    rho: float = 7.0
    n_sample_steps: int = 10

    # -- preconditioning -----------------------------------------------------
    def c_skip(self, sigma: np.ndarray) -> np.ndarray:
        return self.sigma_data ** 2 / (sigma ** 2 + self.sigma_data ** 2)

    def c_out(self, sigma: np.ndarray) -> np.ndarray:
        return sigma * self.sigma_data / np.sqrt(sigma ** 2 + self.sigma_data ** 2)

    def c_in(self, sigma: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt(sigma ** 2 + self.sigma_data ** 2)

    def c_noise(self, sigma: np.ndarray) -> np.ndarray:
        return np.log(sigma) / 4.0

    def loss_weight(self, sigma: np.ndarray) -> np.ndarray:
        return (sigma ** 2 + self.sigma_data ** 2) / (sigma * self.sigma_data) ** 2

    def sample_sigma(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(self.p_mean + self.p_std * rng.normal(size=n)
                      ).astype(np.float32)

    def sigma_schedule(self) -> np.ndarray:
        """Decreasing rho-spaced sigmas, ending exactly at 0."""
        i = np.arange(self.n_sample_steps)
        inv = 1.0 / self.rho
        sig = (self.sigma_max ** inv + i / (self.n_sample_steps - 1)
               * (self.sigma_min ** inv - self.sigma_max ** inv)) ** self.rho
        return np.append(sig, 0.0)


class EdmTrainer:
    """Trains the backbone as an EDM denoiser of standardized residuals."""

    def __init__(self, model: Aeris, archive: SyntheticReanalysis,
                 config: TrainerConfig = TrainerConfig(),
                 edm: EdmConfig = EdmConfig()):
        if model.config.channels != len(TOY_SET):
            raise ValueError("model channel count must match the archive")
        self.model = model
        self.archive = archive
        self.config = config
        self.edm = edm
        self.state_norm = archive.state_normalizer()
        self.residual_norm = archive.residual_normalizer()
        self.forcing_norm = archive.forcing_normalizer()
        self.optimizer = AdamW(model.parameters(), lr=config.peak_lr,
                               betas=config.betas,
                               weight_decay=config.weight_decay)
        self.schedule = WarmupConstantDecay(
            peak_lr=config.peak_lr, warmup_images=config.warmup_images,
            total_images=config.total_images,
            decay_images=config.decay_images)
        self.ema = EMA(model, halflife_images=config.ema_halflife_images)
        self.lat_weights = archive.grid.latitude_weights()
        self.var_weights = np.asarray(TOY_SET.kappa_weights())
        self.images_seen = 0.0
        self.rng_batch = np.random.default_rng(config.seed)
        self.rng_sigma = np.random.default_rng(config.seed + 1)
        self.rng_z = np.random.default_rng(config.seed + 2)
        self.history: list[float] = []

    def train_step(self) -> float:
        cfg, edm = self.config, self.edm
        indices = self.rng_batch.choice(self.archive.split_indices("train"),
                                        size=cfg.batch_size, replace=False)
        cond, x0, forc = self.archive.training_batch(
            indices, self.state_norm, self.residual_norm, self.forcing_norm)
        sigma = edm.sample_sigma(self.rng_sigma, cfg.batch_size)
        z = self.rng_z.normal(size=x0.shape).astype(np.float32)
        sig4 = sigma[:, None, None, None]
        x_noisy = x0 + sig4 * z
        # Precondition: the network regresses the residual target
        # (x0 − c_skip x) / c_out, with unit effective weight.
        target = (x0 - edm.c_skip(sig4) * x_noisy) / edm.c_out(sig4)
        self.optimizer.zero_grad()
        pred = self.model(Tensor(edm.c_in(sig4) * x_noisy),
                          Tensor(edm.c_noise(sigma)),
                          Tensor(cond), Tensor(forc))
        loss = weighted_velocity_loss(pred, target, self.lat_weights,
                                      self.var_weights)
        loss.backward()
        self.optimizer.lr = self.schedule.lr_at(self.images_seen)
        self.optimizer.step()
        self.images_seen += cfg.batch_size
        self.ema.update(self.model, images_per_step=cfg.batch_size)
        value = loss.item()
        self.history.append(value)
        return value

    def fit(self, n_steps: int) -> list[float]:
        for _ in range(n_steps):
            self.train_step()
        return self.history

    def forecaster(self, use_ema: bool = True) -> "EdmForecaster":
        inference = Aeris(self.model.config)
        inference.load_state_dict(self.model.state_dict())
        if use_ema:
            self.ema.copy_to(inference)
        inference.eval()
        return EdmForecaster(model=inference, archive=self.archive,
                             state_norm=self.state_norm,
                             residual_norm=self.residual_norm,
                             forcing_norm=self.forcing_norm, edm=self.edm)


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
