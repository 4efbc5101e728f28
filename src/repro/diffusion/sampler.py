"""Forecast generation: iterative diffusion steps within one 6h/24h data
step, autoregressive data steps out to seasonal scales, and ensembles by
noise resampling (paper Figure 1c/1d).

The model estimates the *standardized residual* ``x_i − x_{i−1}``; a
:class:`ResidualForecaster` owns the state/residual normalizations so users
interact in physical units.

Ensemble members are sampled **batched** by default: the model already
accepts ``(B, H, W, C)`` inputs, so one stacked forward per solver
evaluation serves every member at once (`ensemble_rollout`), bit-identical
to the sequential per-member loop (each member keeps its own seeded
generator, and per-row numerics of a stacked forward are exact).  The
serving tier (:mod:`repro.serve`) batches across *requests* the same way
via :meth:`ResidualForecaster.step_members`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import span as _span
from ..tensor import Tensor, no_grad
from .solver import DpmSolver2S, SolverConfig
from .trigflow import TrigFlow

__all__ = ["ResidualForecaster", "Normalizer", "count_model_forwards",
           "member_seed", "member_rngs", "per_member_indices",
           "conditioning_rows", "lockstep_rollout"]


class Normalizer(Protocol):
    """Z-score normalization protocol (implemented by
    :class:`repro.data.normalize.FieldNormalizer`)."""

    def normalize(self, x: np.ndarray) -> np.ndarray: ...
    def denormalize(self, x: np.ndarray) -> np.ndarray: ...


def count_model_forwards(members: int) -> None:
    """Book one stacked model forward serving ``members`` ensemble members
    (``sampler.model_forwards`` counts forward passes — what latency is
    made of; ``sampler.member_forwards`` counts member-evaluations — what
    the sequential path would have paid one forward each for)."""
    _count("sampler.model_forwards", "stacked model forward passes")
    _count("sampler.member_forwards", "per-member model evaluations",
           members)


def count_data_steps(members: int) -> None:
    """Book one autoregressive data step of ``members`` members (the
    diffusion and the one-step steppers both take them)."""
    _count("sampler.data_steps", "autoregressive data steps sampled",
           members)


def member_seed(seed: int, m: int) -> int:
    """Noise seed of member ``m`` of a forecast seeded ``seed`` — part of
    every serving-cache key, so it is written here and nowhere else."""
    return seed + 1000 * m


def member_rngs(n_members: int, seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng(member_seed(seed, m))
            for m in range(n_members)]


def _normalized_forcings(forecaster, time_index: int) -> np.ndarray:
    forcings = forecaster.forcing_fn(time_index)
    if forecaster.forcing_norm is not None:
        forcings = forecaster.forcing_norm.normalize(forcings)
    return forcings


def per_member_indices(states: np.ndarray,
                       time_indices: int | Sequence[int], m: int
                       ) -> Sequence[int]:
    """One forcing-calendar index per member row: a shared index (an
    ensemble advancing in lockstep) is broadcast, a sequence (coalesced
    serving requests at different leads/init times) must be ``m`` long."""
    if states.shape[0] != m:
        raise ValueError("one state row per generator required")
    if isinstance(time_indices, (int, np.integer)):
        return [int(time_indices)] * m
    if len(time_indices) != m:
        raise ValueError("one time index per member required")
    return time_indices


def conditioning_rows(forecaster, states: np.ndarray,
                      time_indices: Sequence[int]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``(cond, forc)`` rows of one stacked forward: the normalized
    states and each member's normalized forcings (evaluated once per
    distinct time index)."""
    forc_cache: dict[int, np.ndarray] = {}
    for idx in time_indices:
        if idx not in forc_cache:
            forc_cache[idx] = _normalized_forcings(forecaster, idx)
    return (forecaster.state_norm.normalize(states),
            np.stack([forc_cache[idx] for idx in time_indices]))


def lockstep_rollout(stepper, out: np.ndarray, rngs, start_index: int
                     ) -> np.ndarray:
    """Fill ``out[:, 1:]`` from the initial states ``out[:, 0]``, one
    ``stepper.step_members`` call per data step."""
    states = out[:, 0].copy()
    for i in range(out.shape[1] - 1):
        states = stepper.step_members(states, start_index + i, rngs)
        out[:, i + 1] = states
    return out


@dataclass
class ResidualForecaster:
    """Autoregressive ensemble forecaster around a trained AERIS model.

    Parameters
    ----------
    model:
        The trained network (typically with EMA weights loaded). Must accept
        ``(x_t, t, condition, forcings)`` tensors shaped ``(B, H, W, C)``.
    state_norm / residual_norm:
        Z-score transforms for full states and one-step residuals.
    forcing_fn:
        ``time_index -> (H, W, F)`` physical forcings; normalized internally
        by ``forcing_norm`` if provided.
    """

    model: object
    state_norm: Normalizer
    residual_norm: Normalizer
    forcing_fn: Callable[[int], np.ndarray]
    forcing_norm: Normalizer | None = None
    flow: TrigFlow = field(default_factory=TrigFlow)
    solver_config: SolverConfig = field(default_factory=SolverConfig)

    def _velocity_fn(self, cond: np.ndarray, forcings: np.ndarray):
        """Bind conditioning into a velocity oracle for the ODE solver."""
        cond_t = Tensor(cond[None])
        forc_t = Tensor(forcings[None])
        sigma_d = self.flow.sigma_d

        def velocity(x_t: np.ndarray, t: float) -> np.ndarray:
            count_model_forwards(1)
            with no_grad():
                out = self.model(Tensor(x_t[None] / sigma_d),
                                 Tensor(np.array([t], dtype=np.float32)),
                                 cond_t, forc_t)
            return sigma_d * out.numpy()[0]

        return velocity

    def _batched_velocity_fn(self, cond: np.ndarray, forc: np.ndarray):
        """Batched velocity oracle: ``cond`` / ``forc`` carry one row per
        ensemble member, so members with *different* conditioning (states
        diverge after step one; serving coalesces distinct requests) still
        share a single stacked forward."""
        cond_t = Tensor(cond)
        forc_t = Tensor(forc)
        sigma_d = self.flow.sigma_d

        def velocity(x_t: np.ndarray, t: float) -> np.ndarray:
            count_model_forwards(x_t.shape[0])
            with no_grad():
                out = self.model(Tensor(x_t / sigma_d),
                                 Tensor(np.full(x_t.shape[0], t,
                                                dtype=np.float32)),
                                 cond_t, forc_t)
            return sigma_d * out.numpy()

        return velocity

    def step(self, state: np.ndarray, time_index: int,
             rng: np.random.Generator) -> np.ndarray:
        """One data step: sample a residual by diffusion, add to the state.

        ``state`` is physical ``(H, W, C)``; returns the next physical state.
        """
        with _span("sampler.step", category="diffusion",
                   time_index=time_index):
            cond = self.state_norm.normalize(state)
            forcings = _normalized_forcings(self, time_index)
            solver = DpmSolver2S(self.flow, self.solver_config)
            residual_std = solver.sample(self._velocity_fn(cond, forcings),
                                         state.shape, rng)
            count_data_steps(1)
            return state + self.residual_norm.denormalize(residual_std)

    def step_members(self, states: np.ndarray,
                     time_indices: int | Sequence[int],
                     rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One data step for ``M = len(rngs)`` members through stacked
        forwards: ``(M, H, W, C)`` physical states in, next states out.

        Each member keeps its own generator and its own conditioning row;
        ``time_indices`` may be one shared index (an ensemble advancing in
        lockstep) or one per member (coalesced serving requests at
        different leads/init times).  Bit-identical to ``M`` sequential
        :meth:`step` calls.
        """
        m = len(rngs)
        time_indices = per_member_indices(states, time_indices, m)
        with _span("sampler.step_members", category="diffusion",
                   members=m, time_index=int(time_indices[0])):
            cond, forc = conditioning_rows(self, states, time_indices)
            solver = DpmSolver2S(self.flow, self.solver_config)
            residual_std = solver.sample_members(
                self._batched_velocity_fn(cond, forc), states.shape[1:],
                list(rngs))
            count_data_steps(m)
            return states + self.residual_norm.denormalize(residual_std)

    def rollout(self, state0: np.ndarray, n_steps: int,
                rng: np.random.Generator, start_index: int = 0) -> np.ndarray:
        """Autoregressive forecast: ``(n_steps + 1, H, W, C)`` incl. IC."""
        states = np.empty((n_steps + 1,) + state0.shape, dtype=np.float32)
        states[0] = state0
        with _span("sampler.rollout", category="diffusion", n_steps=n_steps,
                   start_index=start_index):
            for i in range(n_steps):
                states[i + 1] = self.step(states[i], start_index + i, rng)
        return states

    def perturbed_initial_condition(self, state0: np.ndarray,
                                    rng: np.random.Generator,
                                    amplitude: float) -> np.ndarray:
        """Initial-condition perturbation scaled by the one-step residual
        statistics (the paper's future-work lever for improving the
        spread/skill ratio: "Improving the spread/skill ratio through
        initial condition perturbations ... may improve ensemble spread
        without hurting skill")."""
        noise = rng.normal(size=state0.shape).astype(np.float32)
        scaled = self.residual_norm.denormalize(noise) \
            - self.residual_norm.denormalize(np.zeros_like(noise))
        return state0 + amplitude * scaled

    def member_rngs(self, n_members: int,
                    seed: int) -> list[np.random.Generator]:
        """The per-member generator convention shared by both rollout paths
        and the serving cache (:func:`member_seed`)."""
        return member_rngs(n_members, seed)

    def ensemble_rollout(self, state0: np.ndarray, n_steps: int,
                         n_members: int, seed: int = 0,
                         start_index: int = 0,
                         ic_perturbation: float = 0.0,
                         batched: bool = True) -> np.ndarray:
        """Ensemble by resampling the diffusion noise per member (and
        optionally perturbing initial conditions):
        ``(n_members, n_steps + 1, H, W, C)``.

        ``batched=True`` (default) advances all members in lockstep through
        one stacked model forward per solver evaluation; ``batched=False``
        keeps the original per-member loop.  The two paths are
        bit-identical (asserted by ``tests/diffusion``): every member's
        noise comes from its own seeded generator either way.
        """
        rngs = self.member_rngs(n_members, seed)
        out = np.empty((n_members, n_steps + 1) + state0.shape,
                       dtype=np.float32)
        for m, rng in enumerate(rngs):
            start = state0
            if ic_perturbation > 0.0 and m > 0:
                # Member 0 stays unperturbed (the control member).
                start = self.perturbed_initial_condition(state0, rng,
                                                         ic_perturbation)
            out[m, 0] = start
        if not batched:
            for m, rng in enumerate(rngs):
                out[m] = self.rollout(out[m, 0], n_steps, rng, start_index)
            return out
        with _span("sampler.ensemble_rollout", category="diffusion",
                   n_steps=n_steps, members=n_members,
                   start_index=start_index):
            return lockstep_rollout(self, out, rngs, start_index)
