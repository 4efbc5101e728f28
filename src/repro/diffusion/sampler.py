"""Forecast generation: iterative diffusion steps within one 6h/24h data
step, autoregressive data steps out to seasonal scales, and ensembles by
noise resampling (paper Figure 1c/1d).

The model estimates the *standardized residual* ``x_i − x_{i−1}``; a
:class:`ResidualForecaster` owns the state/residual normalizations so users
interact in physical units.

There is one sampling path: :meth:`ResidualForecaster.step_members`
advances ``M`` members through stacked forwards (the model accepts
``(B, H, W, C)``; each member keeps its own seeded generator and a row's
numerics do not depend on its batch), and a single member is that path at
``M = 1``.  :func:`step_sharded` runs it over contiguous member groups at
once, one per usable core, the caller one group and a kept worker process
each other (:data:`repro.rows.WORKERS`), each group its whole data
step — noise draws, every solver evaluation, the denoise — with one join
per data step; :func:`lockstep_rollout` repeats that.
*How* a residual is drawn from the network belongs to the
parameterization (``flow.sample_residuals``): TrigFlow's DPM-Solver, the
EDM baseline's Heun sampler and the point baseline's single forward all
run under this forecaster.  The serving tier (:mod:`repro.serve`)
batches across *requests* through the same :func:`step_sharded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from ..nn.module import Module
from ..nn.optim import FlatParams
from ..obs.profile import count as _count
from ..obs.profile import span as _span
from ..rows import WORKERS, enter
from ..tensor import Tensor, no_grad
from .solver import SolverConfig
from .trigflow import TrigFlow

__all__ = ["ResidualForecaster", "Normalizer", "bound_network",
           "count_data_steps", "member_seed", "member_rngs",
           "per_member_indices", "conditioning_rows", "step_sharded",
           "lockstep_rollout"]

#: Initial-condition perturbation amplitude of every ensemble member but
#: the control (:meth:`ResidualForecaster.perturbed_initial_condition`);
#: 0 runs the paper's unperturbed ensembles.
IC_PERTURBATION = 0.0


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
    if m < 1:
        raise ValueError("n_members must be >= 1")
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


def bound_network(model, cond: np.ndarray, forc: np.ndarray):
    """The one network call of every inference regime,
    ``(x_in, t_in) -> F(x_in, t_in, cond, forc)`` on arrays under
    ``no_grad``, with one conditioning row per row of ``x_in``."""
    cond_t, forc_t = Tensor(cond), Tensor(forc)

    def network(x_in: np.ndarray, t_in: np.ndarray) -> np.ndarray:
        with no_grad():
            return model(Tensor(x_in), Tensor(t_in), cond_t, forc_t).numpy()

    return network


def _step_group(stepper, lo: int, hi: int, request: tuple) -> tuple:
    """Members ``lo:hi`` of a data step, ``request = (states, time
    indices, generators)``: their next states and the generators' states
    after them."""
    states, time_indices, rngs = request
    out = stepper.step_members(states, time_indices, rngs)
    return out, [None if rng is None else rng.bit_generator.state
                 for rng in rngs]


def step_sharded(stepper, states: np.ndarray,
                 time_indices: int | Sequence[int],
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """``stepper.step_members`` over contiguous groups of the members at
    once, under ``no_grad``: this process steps the first group, a kept
    worker each other (:data:`repro.rows.WORKERS`), sent the group's state
    rows, time indices and generators; the generators' states it sends
    back are written into the caller's.  A member's next state and
    generator do not depend on which members it is stepped with, so the
    result is one ``step_members`` call's bit for bit; every forward
    inside a group runs whole.

    The stepper is the split's owner (:func:`repro.rows.enter`, checked
    before each step): the workers read its model's weights from the
    shared mapping, and a stepper whose fields were rebound since
    (``stepper.model = …``) re-forks them.  One member, a model that is
    not a :class:`~repro.nn.Module`, and every fallback of
    :func:`repro.rows._fork_bounds` (a GEMM guard, a FLOP counter, an obs
    sink, another thread) step in one call here."""
    rngs = list(rngs)
    time_indices = per_member_indices(states, time_indices, len(rngs))
    with no_grad():
        if len(rngs) < 2 or not isinstance(getattr(stepper, "model", None),
                                           Module):
            return stepper.step_members(states, time_indices, rngs)
        enter(stepper, lambda: FlatParams(stepper.model.parameters()),
              tuple(vars(stepper).values()))
        groups = WORKERS.run(stepper, _step_group, len(rngs), lambda lo, hi: (
            states[lo:hi], time_indices[lo:hi], rngs[lo:hi]))
    if len(groups) == 1:
        return groups[0][0]
    first = len(groups[0][0])
    for rng, state in zip(rngs[first:], (state for _, sent in groups[1:]
                                         for state in sent)):
        if rng is not None:
            rng.bit_generator.state = state
    return np.concatenate([out for out, _ in groups])


def lockstep_rollout(stepper, out: np.ndarray, rngs, start_index: int
                     ) -> np.ndarray:
    """Fill ``out[:, 1:]`` from the initial states ``out[:, 0]``, one
    :func:`step_sharded` call per data step."""
    states = out[:, 0].copy()
    for i in range(out.shape[1] - 1):
        states = step_sharded(stepper, states, start_index + i, rngs)
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
    flow:
        The parameterization the model was trained under; its
        ``sample_residuals(network, shape, rngs, solver_config)`` draws
        the residuals (:class:`TrigFlow`, or ``EdmConfig`` /
        ``PointRegression`` of :mod:`repro.baselines`).
    """

    model: object
    state_norm: Normalizer
    residual_norm: Normalizer
    forcing_fn: Callable[[int], np.ndarray]
    forcing_norm: Normalizer | None = None
    flow: object = field(default_factory=TrigFlow)
    solver_config: SolverConfig = field(default_factory=SolverConfig)

    def _network(self, cond: np.ndarray, forc: np.ndarray):
        """:func:`bound_network` on this model, each call booked as one
        stacked forward."""
        network = bound_network(self.model, cond, forc)

        def booked(x_in: np.ndarray, t_in: np.ndarray) -> np.ndarray:
            count_model_forwards(x_in.shape[0])
            return network(x_in, t_in)

        return booked

    def step_members(self, states: np.ndarray,
                     time_indices: int | Sequence[int],
                     rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One data step for ``M = len(rngs)`` members through stacked
        forwards: ``(M, H, W, C)`` physical states in, next states out.

        Each member keeps its own generator and its own conditioning row;
        ``time_indices`` may be one shared index (an ensemble advancing in
        lockstep) or one per member (coalesced serving requests at
        different leads/init times).  A member's next state does not
        depend on which other members it is stepped with.
        """
        m = len(rngs)
        time_indices = per_member_indices(states, time_indices, m)
        with _span("sampler.step_members", category="diffusion",
                   members=m, time_index=int(time_indices[0])):
            cond, forc = conditioning_rows(self, states, time_indices)
            residual_std = self.flow.sample_residuals(
                self._network(cond, forc), states.shape[1:], list(rngs),
                self.solver_config)
            count_data_steps(m)
            return states + self.residual_norm.denormalize(residual_std)

    def step(self, state: np.ndarray, time_index: int,
             rng: np.random.Generator | None = None) -> np.ndarray:
        """One data step of one member: physical ``(H, W, C)`` in and out
        (``rng`` may be omitted for a parameterization that draws
        nothing)."""
        return self.step_members(state[None], time_index, [rng])[0]

    def rollout(self, state0: np.ndarray, n_steps: int,
                rng: np.random.Generator | None = None,
                start_index: int = 0) -> np.ndarray:
        """Autoregressive forecast of one member on the caller's
        generator: ``(n_steps + 1, H, W, C)`` incl. IC."""
        out = np.empty((1, n_steps + 1) + state0.shape, dtype=np.float32)
        out[0, 0] = state0
        return lockstep_rollout(self, out, [rng], start_index)[0]

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
        """The per-member generator convention shared with the serving
        cache (:func:`member_seed`)."""
        return member_rngs(n_members, seed)

    def ensemble_rollout(self, state0: np.ndarray, n_steps: int,
                         n_members: int, seed: int = 0,
                         start_index: int = 0,
                         batched: bool = True) -> np.ndarray:
        """Ensemble by resampling the noise per member (and perturbing
        initial conditions by :data:`IC_PERTURBATION`):
        ``(n_members, n_steps + 1, H, W, C)``.

        ``batched=True`` (default) advances all members in lockstep through
        one stacked model forward per network evaluation and member group
        (:func:`step_sharded`);
        ``batched=False`` advances them one at a time through the same
        path at ``M = 1`` — bit-identical (asserted by
        ``tests/diffusion``), since every member's noise comes from its
        own seeded generator either way.
        """
        if n_members < 1:
            raise ValueError("n_members must be >= 1")
        rngs = self.member_rngs(n_members, seed)
        out = np.empty((n_members, n_steps + 1) + state0.shape,
                       dtype=np.float32)
        for m, rng in enumerate(rngs):
            start = state0
            if IC_PERTURBATION > 0.0 and m > 0:
                # Member 0 stays unperturbed (the control member).
                start = self.perturbed_initial_condition(state0, rng,
                                                         IC_PERTURBATION)
            out[m, 0] = start
        with _span("sampler.ensemble_rollout", category="diffusion",
                   n_steps=n_steps, members=n_members,
                   start_index=start_index):
            if batched:
                return lockstep_rollout(self, out, rngs, start_index)
            for m, rng in enumerate(rngs):
                lockstep_rollout(self, out[m:m + 1], [rng], start_index)
            return out
