"""The parent's sampling paths, kept verbatim as a test-only oracle.

Before the one-path merge ``src/repro`` wrote the data step four times and
the solver loop twice.  These are those bodies as they stood at the merge's
parent commit (``DpmSolver2S.sample``, ``ResidualForecaster._velocity_fn``
/ ``.step`` / ``.rollout`` / the sequential half of ``.ensemble_rollout``,
``OneStepForecaster``, ``EdmForecaster``, ``DeterministicForecaster``) —
method bodies untouched (``ensemble_rollout`` keeps its sequential
branch only), class names prefixed.
``test_one_path_exact.py`` steps them beside the shipped path and requires
equal arrays *and* equal generator states; nothing under ``src/`` imports
this module (the way ``tests/tensor/test_sweep.py`` and
``tests/data/reference_gcm.py`` keep their parents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.baselines import EdmConfig
from repro.data import SyntheticReanalysis
from repro.diffusion import DpmSolver2S, SolverConfig, TrigFlow
from repro.diffusion.sampler import (Normalizer, _normalized_forcings,
                                     conditioning_rows, count_data_steps,
                                     count_model_forwards, lockstep_rollout,
                                     member_rngs, per_member_indices)
from repro.diffusion.solver import VelocityFn, _count_steps
from repro.model import Aeris
from repro.obs.profile import span as _span
from repro.tensor import Tensor, no_grad


class ReferenceSolver(DpmSolver2S):
    """``DpmSolver2S`` with the parent's single-sample loop."""

    def sample(self, velocity_fn: VelocityFn, shape: tuple[int, ...],
               rng: np.random.Generator) -> np.ndarray:
        """Draw one sample: integrate from ``z ~ N(0, sigma_d^2)`` at
        ``t = pi/2`` to ``t_min`` and denoise the final state."""
        x = rng.normal(0.0, self.flow.sigma_d, size=shape).astype(np.float32)
        ts = self.schedule()
        for i in range(len(ts) - 1):
            t, t_next = float(ts[i]), float(ts[i + 1])
            with _span("solver.step", category="diffusion", i=i, t=t,
                       t_next=t_next):
                if self.config.churn > 0 and i > 0:
                    delta = self.config.churn * (t - t_next)
                    x, t = self.churn_state(x, t, delta, rng)
                x = self._step(velocity_fn, x, t, t_next)
            _count_steps(1)
        # Final denoise: read x0 off the velocity at the last time.
        t_last = float(ts[-1])
        with _span("solver.denoise", category="diffusion", t=t_last):
            v = velocity_fn(x, t_last)
            return self.flow.denoise_from_velocity(x, v, np.asarray(t_last))


@dataclass
class ReferenceForecaster:
    """The parent's ``ResidualForecaster``, sequential paths only."""

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

    def step(self, state: np.ndarray, time_index: int,
             rng: np.random.Generator) -> np.ndarray:
        """One data step: sample a residual by diffusion, add to the state.

        ``state`` is physical ``(H, W, C)``; returns the next physical state.
        """
        with _span("sampler.step", category="diffusion",
                   time_index=time_index):
            cond = self.state_norm.normalize(state)
            forcings = _normalized_forcings(self, time_index)
            solver = ReferenceSolver(self.flow, self.solver_config)
            residual_std = solver.sample(self._velocity_fn(cond, forcings),
                                         state.shape, rng)
            count_data_steps(1)
            return state + self.residual_norm.denormalize(residual_std)

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
        return member_rngs(n_members, seed)

    def ensemble_rollout(self, state0: np.ndarray, n_steps: int,
                         n_members: int, seed: int = 0,
                         start_index: int = 0,
                         ic_perturbation: float = 0.0) -> np.ndarray:
        """The parent's ``batched=False`` half: the original per-member
        loop (its ``batched=True`` half was ``lockstep_rollout`` over
        ``step_members``, which is what ships)."""
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
        for m, rng in enumerate(rngs):
            out[m] = self.rollout(out[m, 0], n_steps, rng, start_index)
        return out


@dataclass
class ReferenceOneStepForecaster:
    """The ``fast`` tier's stepper: one consistency-student evaluation per
    data step (TrigFlow jump from pure noise at ``t = π/2`` straight to
    ``t = 0``), with the same stepping surface as
    :class:`~repro.diffusion.ResidualForecaster` — per-member seeded
    generators, stacked forwards, physical units in and out.
    """

    model: object
    state_norm: Normalizer
    residual_norm: Normalizer
    forcing_fn: object
    forcing_norm: Normalizer | None = None
    flow: TrigFlow = field(default_factory=TrigFlow)

    def step_members(self, states: np.ndarray,
                     time_indices: int | Sequence[int],
                     rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One data step for ``M`` members in one student forward."""
        m = len(rngs)
        time_indices = per_member_indices(states, time_indices, m)
        sigma_d = self.flow.sigma_d
        with _span("sampler.one_step", category="diffusion", members=m,
                   time_index=int(time_indices[0])):
            cond, forc = conditioning_rows(self, states, time_indices)
            z = np.stack([rng.normal(0.0, sigma_d, size=states.shape[1:])
                          .astype(np.float32) for rng in rngs])
            t = np.full(m, np.pi / 2, dtype=np.float32)
            count_model_forwards(m)
            with no_grad():
                out = self.model(Tensor(z / sigma_d), Tensor(t),
                                 Tensor(cond), Tensor(forc))
            residual_std = self.flow.denoise_from_velocity(
                z, sigma_d * out.numpy(), t)
            count_data_steps(m)
            return states + self.residual_norm.denormalize(residual_std)

    def ensemble_rollout(self, state0: np.ndarray, n_steps: int,
                         n_members: int, seed: int = 0,
                         start_index: int = 0) -> np.ndarray:
        """``(n_members, n_steps + 1, H, W, C)`` one-step-student ensemble."""
        out = np.empty((n_members, n_steps + 1) + state0.shape,
                       dtype=np.float32)
        out[:, 0] = state0
        with _span("sampler.one_step_rollout", category="diffusion",
                   n_steps=n_steps, members=n_members):
            return lockstep_rollout(self, out, member_rngs(n_members, seed),
                                    start_index)


@dataclass
class ReferenceEdmForecaster:
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


@dataclass
class ReferenceDeterministicForecaster:
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
