"""Batched vs sequential ensemble rollout must be bit-identical.

The batched path advances all members in lockstep through one stacked
model forward per solver evaluation; each member keeps its own seeded
generator, and per-row numerics of a stacked forward are exact, so the
results must match the sequential per-member loop to the bit — including
under trigonometric churn (whose float64 promotion is the numerically
delicate part) and initial-condition perturbations.
"""

import numpy as np
import pytest

from repro import quickstart_components
from repro.diffusion import SolverConfig, sampler


@pytest.fixture(scope="module")
def world():
    archive, trainer = quickstart_components(height=8, width=16,
                                             train_years=0.2,
                                             test_years=0.1)
    idx = int(archive.split_indices("test")[0])
    return archive, trainer, idx


@pytest.mark.parametrize("solver,ic", [
    (SolverConfig(n_steps=2), 0.0),
    (SolverConfig(n_steps=3, churn=0.5), 0.0),
    (SolverConfig(n_steps=2), 0.2),
], ids=["plain", "churn", "ic_perturbation"])
def test_batched_equals_sequential(world, solver, ic, monkeypatch):
    archive, trainer, idx = world
    fc = trainer.forecaster(solver)
    state0 = archive.fields[idx]
    monkeypatch.setattr(sampler, "IC_PERTURBATION", ic)
    kwargs = dict(n_steps=2, n_members=3, seed=11, start_index=idx)
    batched = fc.ensemble_rollout(state0, **kwargs)
    sequential = fc.ensemble_rollout(state0, batched=False, **kwargs)
    assert batched.dtype == sequential.dtype == np.float32
    assert np.array_equal(batched, sequential)


def test_step_members_accepts_per_member_time_indices(world):
    """Coalesced serving requests sit at different calendar positions;
    stepping them jointly must equal stepping each alone."""
    archive, trainer, idx = world
    fc = trainer.forecaster(SolverConfig(n_steps=2))
    states = np.stack([archive.fields[idx], archive.fields[idx + 1]])
    rngs = fc.member_rngs(2, seed=4)
    joint = fc.step_members(states, [idx, idx + 1], rngs)
    solo0 = fc.step(states[0], idx, np.random.default_rng(4))
    solo1 = fc.step(states[1], idx + 1, np.random.default_rng(1004))
    assert np.array_equal(joint[0], solo0)
    assert np.array_equal(joint[1], solo1)


def test_member_count_mismatch_raises(world):
    _, trainer, idx = world
    fc = trainer.forecaster(SolverConfig(n_steps=2))
    states = np.zeros((2, 8, 16, 9), dtype=np.float32)
    with pytest.raises(ValueError):
        fc.step_members(states, idx, fc.member_rngs(3, seed=0))
    with pytest.raises(ValueError):
        fc.step_members(states, [idx], fc.member_rngs(2, seed=0))
