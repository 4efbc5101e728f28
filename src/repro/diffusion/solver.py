"""Probability-flow ODE solver: DPMSolver++ 2S under TrigFlow with a
log-uniform time schedule and trigonometric Langevin churn (Section VI-B,
"Inference").

The learned dynamics follow ``dx_t/dt = sigma_d * F_theta(x_t / sigma_d, t)``.
A forecast step integrates this from pure noise at ``t = pi/2`` down to
``t ≈ 0`` in a fixed number of solver steps.  Each step is a second-order
"2S" (single-step midpoint) update; the step endpoints follow the training
prior by placing them log-uniformly in ``tan(t)``.

Churn: before each solver step the state can be rotated *toward* noise —
``x' = cos(delta) x + sin(delta) z`` lands exactly on the TrigFlow marginal
at ``t' = arccos(cos t · cos delta)`` — which re-injects stochasticity,
improving sample quality and ensemble spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import span as _span
from .trigflow import TrigFlow

__all__ = ["SolverConfig", "DpmSolver2S"]

#: A velocity oracle: (x_t, t) -> sigma_d * F_theta(x_t / sigma_d, t).
VelocityFn = Callable[[np.ndarray, float], np.ndarray]


def _count_steps(members: int) -> None:
    _count("solver.steps", "2S solver steps taken", members)


@dataclass(frozen=True)
class SolverConfig:
    """Sampler hyperparameters (paper defaults)."""

    n_steps: int = 10
    churn: float = 0.0          # fraction of each step re-noised (0 disables)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.churn < 0:
            raise ValueError("churn must be >= 0")


class DpmSolver2S:
    """Second-order single-step solver over the TrigFlow PFODE."""

    def __init__(self, flow: TrigFlow, config: SolverConfig = SolverConfig()):
        self.flow = flow
        self.config = config

    def schedule(self) -> np.ndarray:
        """Decreasing time grid: ``pi/2`` then log-uniform in ``tan(t)`` down
        to the flow's ``t_min`` (matching the training prior's support)."""
        taus = np.linspace(np.log(self.flow.sigma_max),
                           np.log(np.tan(self.flow.t_min) * self.flow.sigma_d),
                           self.config.n_steps)
        ts = self.flow.tau_to_t(taus)
        ts[0] = np.pi / 2  # exact pure-noise start
        return ts.astype(np.float64)

    def churn_state(self, x: np.ndarray, t: float, delta: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Rotate the state toward noise by angle ``delta`` (Langevin-like)."""
        if delta <= 0:
            return x, t
        z = rng.normal(0.0, self.flow.sigma_d, size=x.shape).astype(x.dtype)
        x_new = np.cos(delta) * x + np.sin(delta) * z
        t_new = float(np.arccos(np.clip(np.cos(t) * np.cos(delta), -1.0, 1.0)))
        return x_new, t_new

    def sample_members(self, velocity_fn: VelocityFn,
                       shape: tuple[int, ...],
                       rngs: list[np.random.Generator]) -> np.ndarray:
        """Draw one sample per generator: integrate each from
        ``z ~ N(0, sigma_d^2)`` at ``t = pi/2`` to ``t_min`` and denoise
        the final state, with *stacked* model evaluations.

        Per-member randomness (initial noise, churn) comes from each
        member's own generator while every velocity evaluation runs once
        on the ``(M,) + shape`` batch.  A row's numerics do not depend on
        its batch, so a single sample is this call with one generator.

        ``velocity_fn`` must accept/return batched ``(M,) + shape`` arrays.
        """
        m = len(rngs)
        x = np.stack([rng.normal(0.0, self.flow.sigma_d, size=shape)
                      .astype(np.float32) for rng in rngs])
        ts = self.schedule()
        for i in range(len(ts) - 1):
            t, t_next = float(ts[i]), float(ts[i + 1])
            with _span("solver.step", category="diffusion", i=i, t=t,
                       t_next=t_next, members=m):
                if self.config.churn > 0 and i > 0:
                    delta = self.config.churn * (t - t_next)
                    # The churned time depends only on (t, delta), so every
                    # member lands on the same t; only the noise differs.
                    # Restacking (not in-place assignment) lets the float64
                    # promotion of the rotation through.
                    t_churned = t
                    rows = []
                    for k, rng in enumerate(rngs):
                        row, t_churned = self.churn_state(x[k], t, delta,
                                                          rng)
                        rows.append(row)
                    x = np.stack(rows)
                    t = t_churned
                x = self._step(velocity_fn, x, t, t_next)
            _count_steps(m)
        t_last = float(ts[-1])
        with _span("solver.denoise", category="diffusion", t=t_last,
                   members=m):
            v = velocity_fn(x, t_last)
            return self.flow.denoise_from_velocity(x, v, np.asarray(t_last))

    def _step(self, velocity_fn: VelocityFn, x: np.ndarray, t: float,
              t_next: float) -> np.ndarray:
        """One 2S update: explicit midpoint over the PFODE."""
        h = t_next - t
        v1 = velocity_fn(x, t)
        x_mid = x + 0.5 * h * v1
        t_mid = t + 0.5 * h
        v2 = velocity_fn(x_mid, t_mid)
        return x + h * v2
