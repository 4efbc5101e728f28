"""TrigFlow diffusion parameterization (paper Section VI-B, after Lu & Song).

Clean samples ``x0 ~ p_d`` are noised by spherical interpolation with
Gaussian noise::

    x_t = cos(t) * x0 + sin(t) * z,      z ~ N(0, sigma_d^2 I)

with diffusion time ``t = arctan(e^tau / sigma_d) in [0, pi/2]`` and ``tau``
drawn log-uniformly between ``log(sigma_min)`` and ``log(sigma_max)``
(empirically 0.2 and 500 — a heavy-tailed noise prior).  The network learns
the velocity ``v_t = cos(t) z − sin(t) x0`` via an L2 objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrigFlow"]


@dataclass(frozen=True)
class TrigFlow:
    """Stateless TrigFlow helper bundling the paper's constants."""

    sigma_d: float = 1.0
    sigma_min: float = 0.2
    sigma_max: float = 500.0

    # -- time / noise-level mappings ---------------------------------------
    def tau_to_t(self, tau: np.ndarray) -> np.ndarray:
        """Map log-noise ``tau`` to the angular time ``t``."""
        return np.arctan(np.exp(tau) / self.sigma_d)

    def sample_tau(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Log-uniform prior over noise levels."""
        u = rng.uniform(0.0, 1.0, size=n)
        return ((1.0 - u) * np.log(self.sigma_min)
                + u * np.log(self.sigma_max)).astype(np.float32)

    def sample_t(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.tau_to_t(self.sample_tau(rng, n)).astype(np.float32)

    @property
    def t_min(self) -> float:
        return float(self.tau_to_t(np.log(self.sigma_min)))

    # -- interpolant ---------------------------------------------------------
    def interpolate(self, x0: np.ndarray, z: np.ndarray, t: np.ndarray
                    ) -> np.ndarray:
        """``x_t = cos(t) x0 + sin(t) z`` with ``t`` broadcast per-sample."""
        ct, st = self._angles(t, x0.ndim)
        return ct * x0 + st * z

    def velocity_target(self, x0: np.ndarray, z: np.ndarray, t: np.ndarray
                        ) -> np.ndarray:
        """``v_t = cos(t) z − sin(t) x0``, the regression target."""
        ct, st = self._angles(t, x0.ndim)
        return ct * z - st * x0

    def denoise_from_velocity(self, x_t: np.ndarray, v: np.ndarray,
                              t: np.ndarray) -> np.ndarray:
        """Recover the implied clean sample: ``x0 = cos(t) x_t − sin(t) v``.

        (Inverting the rotation [x_t; v] = R(t) [x0; z].)
        """
        ct, st = self._angles(t, x_t.ndim)
        return ct * x_t - st * v

    @staticmethod
    def _angles(t: np.ndarray, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t)
        if t.dtype != np.float64:  # keep FP64 when callers ask for it
            t = t.astype(np.float32)
        shape = t.shape + (1,) * (ndim - t.ndim)
        t = t.reshape(shape)
        return np.cos(t), np.sin(t)

    # -- training-pair construction -----------------------------------------
    def training_pair(self, x0: np.ndarray, rng_t: np.random.Generator,
                      rng_z: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``(x_t, t, v_target)`` for a batch of clean samples.

        Two independent generators implement the paper's distributed seeding
        rule: ``rng_t`` (the noise *level*) is shared across all
        model-parallel ranks so every shard of one sample sees the same ``t``;
        ``rng_z`` (the Gaussian noise field) is "truly random across ranks",
        spatially uncorrelated.
        """
        batch = x0.shape[0]
        t = self.sample_t(rng_t, batch)
        z = rng_z.normal(0.0, self.sigma_d, size=x0.shape).astype(np.float32)
        x_t = self.interpolate(x0, z, t)
        v = self.velocity_target(x0, z, t)
        return x_t, t, v

    def network_pair(self, x0: np.ndarray, rng_t: np.random.Generator,
                     rng_z: np.random.Generator):
        """``(x_in, t_in, target, out_scale)``: what a training loop feeds
        the network and regresses ``prediction * out_scale`` against —
        the one expression a parameterization owns."""
        x_t, t, v = self.training_pair(x0, rng_t, rng_z)
        return x_t / self.sigma_d, t, v, self.sigma_d

    # -- inference -----------------------------------------------------------
    def velocity(self, network, x_t: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The learned PFODE velocity ``sigma_d * F(x_t / sigma_d, t)``;
        ``network(x_in, t_in)`` is the conditioned call of
        :func:`repro.diffusion.sampler.bound_network`."""
        return self.sigma_d * network(x_t / self.sigma_d, t)

    def sample_residuals(self, network, shape: tuple[int, ...], rngs,
                         solver_config) -> np.ndarray:
        """One standardized residual per generator, ``(M,) + shape``: the
        other half of a parameterization's job (``EdmConfig`` and
        ``PointRegression`` in :mod:`repro.baselines` have the same
        method).  TrigFlow integrates the PFODE with DPM-Solver++ 2S."""
        from .solver import DpmSolver2S   # solver.py imports this module
        m = len(rngs)
        return DpmSolver2S(self, solver_config).sample_members(
            lambda x_t, t: self.velocity(
                network, x_t, np.full(m, t, dtype=np.float32)),
            shape, rngs)
