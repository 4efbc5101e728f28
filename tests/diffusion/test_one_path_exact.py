"""The one sampling path against the parent's four, bit for bit.

``reference_samplers.py`` holds the sequential bodies the merge removed.
Every case requires ``array_equal`` outputs **and** equal generator states
between a reference run and the shipped path on twin generators: a single
member must be the stacked path at ``M = 1``, a stacked row must not depend
on its batch, and the EDM / point baselines must sample under
``ResidualForecaster`` exactly as their own classes did.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.baselines import DeterministicTrainer, EdmConfig, EdmTrainer
from repro.diffusion import (DpmSolver2S, SolverConfig, TrigFlow,
                             member_rngs, sampler)
from repro.model import Aeris
from repro.serve import OneStepForecaster

from .reference_samplers import (ReferenceDeterministicForecaster,
                                 ReferenceEdmForecaster, ReferenceForecaster,
                                 ReferenceOneStepForecaster, ReferenceSolver)
from .test_solver import gaussian_velocity_fn

SOLVERS = {"standard": SolverConfig(10),
           "high": SolverConfig(20, churn=0.3),
           "single": SolverConfig(1)}
FIELDS = ("model", "state_norm", "residual_norm", "forcing_fn",
          "forcing_norm", "flow")


def same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def pair(serve_world, solver: str):
    """``(shipped, reference)`` forecasters over one model and solver."""
    shipped = replace(serve_world[1], solver_config=SOLVERS[solver])
    return shipped, ReferenceForecaster(
        solver_config=SOLVERS[solver],
        **{name: getattr(shipped, name) for name in FIELDS})


class TestSolver:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("members", [1, 3])
    def test_sample_members_is_the_parents_sample_per_row(self, solver,
                                                          members):
        config = SOLVERS[solver]
        velocity = gaussian_velocity_fn(0.5, 1.0)   # elementwise: row-wise
        ours, theirs = member_rngs(members, 5), member_rngs(members, 5)
        stacked = DpmSolver2S(TrigFlow(), config).sample_members(
            velocity, (64,), ours)
        for m in range(members):
            want = ReferenceSolver(TrigFlow(), config).sample(
                velocity, (64,), theirs[m])
            assert stacked[m].dtype == want.dtype
            assert np.array_equal(stacked[m], want)
            assert same_stream(ours[m], theirs[m])


class TestDataStep:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("members", [1, 3, 16])
    @pytest.mark.parametrize("per_member_index", [False, True],
                             ids=["shared_index", "index_per_member"])
    def test_step_members_equals_the_parents_steps(self, serve_world, solver,
                                                   members, per_member_index):
        archive, _, _, idx = serve_world
        shipped, reference = pair(serve_world, solver)
        states = np.stack([archive.fields[idx + k] for k in range(members)])
        indices = ([idx + (k % 3) for k in range(members)]
                   if per_member_index else idx)
        ours, theirs = member_rngs(members, 9), member_rngs(members, 9)
        stepped = shipped.step_members(states, indices, ours)
        for m in range(members):
            index = indices[m] if per_member_index else idx
            want = reference.step(states[m], index, theirs[m])
            assert np.array_equal(stepped[m], want)
            assert same_stream(ours[m], theirs[m])

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_single_member_step_and_rollout(self, serve_world, solver):
        archive, _, _, idx = serve_world
        shipped, reference = pair(serve_world, solver)
        state0 = archive.fields[idx]
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(shipped.step(state0, idx, ours),
                              reference.step(state0, idx, theirs))
        assert same_stream(ours, theirs)
        got = shipped.rollout(state0, 3, ours, start_index=idx)
        want = reference.rollout(state0, 3, theirs, start_index=idx)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)
        assert same_stream(ours, theirs)


class TestEnsemble:
    @pytest.mark.parametrize("solver,members,n_steps,ic,batched", [
        ("standard", 1, 3, 0.0, True),
        ("standard", 3, 1, 0.0, True),
        ("standard", 3, 3, 0.0, False),
        ("standard", 16, 1, 0.1, True),
        ("high", 1, 1, 0.0, False),
        ("high", 3, 3, 0.1, True),
        ("high", 3, 1, 0.0, False),
        ("high", 16, 1, 0.0, True),
        ("single", 3, 3, 0.1, False),
        ("single", 16, 3, 0.0, True),
        ("single", 16, 1, 0.1, False),
    ])
    def test_ensemble_rollout_equals_the_parents_member_loop(
            self, serve_world, solver, members, n_steps, ic, batched,
            monkeypatch):
        archive, _, _, idx = serve_world
        shipped, reference = pair(serve_world, solver)
        monkeypatch.setattr(sampler, "IC_PERTURBATION", ic)
        kwargs = dict(n_steps=n_steps, n_members=members, seed=11,
                      start_index=idx)
        got = shipped.ensemble_rollout(archive.fields[idx], batched=batched,
                                       **kwargs)
        want = reference.ensemble_rollout(archive.fields[idx],
                                          ic_perturbation=ic, **kwargs)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_bookings_equal_the_parents(self, serve_world):
        """``sampler.*`` / ``solver.steps`` book the same totals: a single
        member books 1 per forward, as the parent's ``sample`` did."""
        archive, _, _, idx = serve_world
        shipped, reference = pair(serve_world, "high")
        names = ("sampler.model_forwards", "sampler.member_forwards",
                 "sampler.data_steps", "solver.steps")

        def booked(run):
            with obs.observed() as (_, registry):
                run()
                return {n: registry.counter(n).total() for n in names}

        state0 = archive.fields[idx]
        assert booked(lambda: shipped.rollout(
            state0, 2, np.random.default_rng(0), start_index=idx)) \
            == booked(lambda: reference.rollout(
                state0, 2, np.random.default_rng(0), start_index=idx))
        kwargs = dict(n_steps=1, n_members=3, seed=2, start_index=idx)
        assert booked(lambda: shipped.ensemble_rollout(
            state0, batched=False, **kwargs)) \
            == booked(lambda: reference.ensemble_rollout(state0, **kwargs))

    def test_empty_ensemble_is_a_value_error(self, serve_world):
        """An empty ensemble escaped as ``IndexError`` from a span
        attribute; ``ForecastRequest`` already states the rule."""
        archive, forecaster, _, idx = serve_world
        with pytest.raises(ValueError, match="n_members must be >= 1"):
            forecaster.ensemble_rollout(archive.fields[idx], n_steps=1,
                                        n_members=0, start_index=idx)
        with pytest.raises(ValueError, match="n_members must be >= 1"):
            forecaster.step_members(archive.fields[idx:idx], idx, [])


class TestOneStepStudent:
    @pytest.mark.parametrize("members", [1, 3])
    def test_student_ensemble_equals_the_parents(self, serve_world, members):
        archive, forecaster, student, idx = serve_world
        fields = {name: getattr(forecaster, name) for name in FIELDS}
        fields["model"] = student
        shipped = OneStepForecaster(**fields)
        reference = ReferenceOneStepForecaster(**fields)
        kwargs = dict(n_steps=2, n_members=members, seed=5, start_index=idx)
        assert np.array_equal(
            shipped.ensemble_rollout(archive.fields[idx], **kwargs),
            reference.ensemble_rollout(archive.fields[idx], **kwargs))
        states = np.stack([archive.fields[idx + k] for k in range(members)])
        ours, theirs = member_rngs(members, 1), member_rngs(members, 1)
        assert np.array_equal(shipped.step_members(states, idx, ours),
                              reference.step_members(states, idx, theirs))
        assert all(same_stream(a, b) for a, b in zip(ours, theirs))


class TestBaselines:
    """The EDM and point parameterizations sample under
    ``ResidualForecaster`` (``Trainer.forecaster()`` is the one
    constructor) exactly as ``EdmForecaster`` / ``DeterministicForecaster``
    did."""

    @staticmethod
    def reference_fields(trainer, fc) -> dict:
        return dict(model=fc.model, archive=trainer.archive,
                    state_norm=trainer.state_norm,
                    residual_norm=trainer.residual_norm,
                    forcing_norm=trainer.forcing_norm)

    def test_stacked_edm_ensemble_equals_the_sequential_one(self,
                                                            serve_world):
        archive, forecaster, _, idx = serve_world
        trainer = EdmTrainer(Aeris(forecaster.model.config, seed=2), archive,
                             edm=EdmConfig(n_sample_steps=4))
        shipped = trainer.forecaster()
        reference = ReferenceEdmForecaster(
            edm=trainer.flow, **self.reference_fields(trainer, shipped))
        kwargs = dict(n_steps=2, n_members=4, seed=0, start_index=idx)
        state0 = archive.fields[idx]
        want = reference.ensemble_rollout(state0, **kwargs)
        for batched in (True, False):
            assert np.array_equal(
                shipped.ensemble_rollout(state0, batched=batched, **kwargs),
                want)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        assert np.array_equal(
            shipped.rollout(state0, 2, ours, start_index=idx),
            reference.rollout(state0, 2, theirs, start_index=idx))
        assert same_stream(ours, theirs)

    def test_point_forecaster_equals_the_parents_rollout(self, serve_world):
        archive, forecaster, _, idx = serve_world
        trainer = DeterministicTrainer(
            Aeris(forecaster.model.config, seed=1), archive)
        shipped = trainer.forecaster()
        reference = ReferenceDeterministicForecaster(
            **self.reference_fields(trainer, shipped))
        state0 = archive.fields[idx]
        assert np.array_equal(shipped.step(state0, idx),
                              reference.step(state0, idx))
        got = shipped.rollout(state0, 3, start_index=idx)
        assert got.dtype == np.float32
        assert np.array_equal(got, reference.rollout(state0, 3, idx))
        # Draws nothing: an "ensemble" of it has no spread.
        ens = shipped.ensemble_rollout(state0, n_steps=1, n_members=2,
                                       start_index=idx)
        assert np.array_equal(ens[0], ens[1])
