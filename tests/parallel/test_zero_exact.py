"""ZeRO-1 as an ``AdamW`` plus an owner table, against the optimizer it
replaced, and the SWiPe engine's checkpoint round trip — bit for bit.

``reference_zero.py`` holds the one-``AdamW``-per-shard optimizer the merge
removed.  Each case steps it and the shipped :class:`ZeroOptimizer` on
twin models and requires ``array_equal`` weights and moments, equal step
counts and equal ``CommStats``.  The engine cases require a DP = 2
checkpoint to restore exactly under DP = 1 and DP = 2, the DP = 2 resume
to continue the uninterrupted run's losses exactly, and a generation that
verifies but lacks a moment to fail typed through the supervisor.
"""

import re

import numpy as np
import pytest

from repro.model import Aeris
from repro.parallel import RankTopology, SimCluster, SwipeEngine, ZeroOptimizer
from repro.resilience import FailStop, FaultInjector, FaultPlan, RankFailure
from repro.resilience.supervisor import ElasticSupervisor, SupervisorConfig
from repro.train import (CheckpointError, list_checkpoints,
                         read_sharded_checkpoint, write_sharded_checkpoint)
from tests.train.test_trainer import TINY16

from .reference_zero import ReferenceZeroOptimizer

N_STEPS = 5
#: (step, parameter index) whose gradient is ``None``: AdamW skips it.
NO_GRAD = (2, 3)


def twins(dp, plan=None):
    """``(shipped, reference)`` over twin models, each on its own cluster
    (and its own injector, when ``plan`` is given)."""
    return [cls(Aeris(TINY16, seed=0).parameters(),
                SimCluster(dp, injector=None if plan is None
                           else FaultInjector(plan)),
                list(range(dp)), lr=1e-2)
            for cls in (ZeroOptimizer, ReferenceZeroOptimizer)]


def step_both(opts, step):
    r = np.random.default_rng(step)
    for i, params in enumerate(zip(*(opt.params for opt in opts))):
        grad = None if (step, i) == NO_GRAD else r.normal(
            size=params[0].data.shape).astype(np.float32)
        for p in params:
            p.grad = None if grad is None else grad.copy()
    for opt in opts:
        if opt.cluster.injector is not None:
            opt.cluster.injector.advance(step)
        opt.step()


def assert_same_state(zero, ref):
    assert zero.step_count == ref.step_count
    ref_m, ref_v = ref.state_lists()
    for i, p in enumerate(zero.params):
        np.testing.assert_array_equal(p.data, ref.params[i].data)
        np.testing.assert_array_equal(zero.exp_avg[i], ref_m[i])
        np.testing.assert_array_equal(zero.exp_avg_sq[i], ref_v[i])
    assert dict(zero.cluster.stats.bytes) == dict(ref.cluster.stats.bytes)
    assert dict(zero.cluster.stats.ops) == dict(ref.cluster.stats.ops)


class TestAgainstReference:
    @pytest.mark.parametrize("dp", [1, 2, 3, 4])
    def test_weights_moments_and_comm_equal(self, dp):
        zero, ref = twins(dp)
        for step in range(N_STEPS):
            step_both((zero, ref), step)
        assert zero.step_count == N_STEPS
        assert_same_state(zero, ref)
        assert [zero.state_bytes_on(s) for s in range(dp)] == \
            [ref.state_bytes_on(s) for s in range(dp)]

    @pytest.mark.parametrize("dead", [0, 3])
    def test_fail_stop_raises_at_the_same_transfer(self, dead):
        plan = FaultPlan(events=(FailStop(rank=dead, step=2),))
        zero, ref = twins(4, plan)
        for opt in (zero, ref):
            for step in range(N_STEPS):
                try:
                    step_both((opt,), step)
                except RankFailure:
                    break
            assert step == 2
        assert zero.cluster.stats.total_bytes() > 0
        assert_same_state(zero, ref)


def _engine(archive, dp):
    topo = RankTopology(dp=dp, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
    return SwipeEngine(TINY16, archive, topo, lr=1e-3, seed=0)


def _train_step(engine, archive, step):
    """One step on a batch fixed by ``step`` (as the supervisor samples)."""
    indices = np.random.default_rng([0, step]).choice(
        archive.split_indices("train"), size=4, replace=False)
    cond, residual, forc = archive.training_batch(
        indices, archive.state_normalizer(), archive.residual_normalizer(),
        archive.forcing_normalizer())
    x_t, t, v = engine.make_training_pairs(residual)
    return engine.train_step(x_t, t, v, cond, forc, gas=2)


@pytest.fixture(scope="module")
def straight(tiny_archive, tmp_path_factory):
    """A DP = 2 engine checkpointed after 2 steps, then stepped once more:
    ``(engine, generation, state at the checkpoint, losses)``."""
    engine = _engine(tiny_archive, 2)
    losses = [_train_step(engine, tiny_archive, s) for s in range(2)]
    where = write_sharded_checkpoint(
        str(tmp_path_factory.mktemp("swipe") / "step-2"),
        *engine.state_payload())
    saved = [[a.copy() for a in arrays] for arrays in (
        [p.data for p in engine.optimizer.params], engine.optimizer.exp_avg,
        engine.optimizer.exp_avg_sq)]
    losses.append(_train_step(engine, tiny_archive, 2))
    return engine, where, saved, losses


class TestEngineCheckpoint:
    @pytest.mark.parametrize("dp", [1, 2])
    def test_restores_exactly_under_any_dp(self, straight, tiny_archive, dp):
        _, where, (weights, exp_avg, exp_avg_sq), _ = straight
        engine = _engine(tiny_archive, dp)
        engine.restore(*read_sharded_checkpoint(where), where=where)
        assert engine.optimizer.step_count == 2
        for p, want in zip(engine.model.parameters(), weights):
            np.testing.assert_array_equal(p.data, want)
        opt = engine.optimizer
        for got, want in zip(opt.exp_avg + opt.exp_avg_sq,
                             exp_avg + exp_avg_sq):
            np.testing.assert_array_equal(got, want)

    def test_dp2_resume_continues_bit_exactly(self, straight, tiny_archive):
        reference, where, _, losses = straight
        engine = _engine(tiny_archive, 2)
        engine.restore(*read_sharded_checkpoint(where), where=where)
        assert _train_step(engine, tiny_archive, 2) == losses[2]
        for p, q in zip(engine.optimizer.params, reference.optimizer.params):
            np.testing.assert_array_equal(p.data, q.data)

    def test_missing_moment_raises_typed_through_supervisor(
            self, tiny_archive, tmp_path):
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        sup = ElasticSupervisor(
            TINY16, tiny_archive, topo,
            SupervisorConfig(global_batch=4, gas=1,
                             checkpoint_root=str(tmp_path)))
        sup.run(1)
        where = list_checkpoints(str(tmp_path))[-1]
        shards, extra = read_sharded_checkpoint(where)
        del shards["opt"]["m/3"]
        write_sharded_checkpoint(where, shards, extra)  # still verifies
        with pytest.raises(CheckpointError, match=re.escape(where)):
            sup._restore_latest()
