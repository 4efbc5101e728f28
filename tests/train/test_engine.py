"""The one training engine under every constructor: the pipeline's depth
moves no bit of a DP = 1, GAS = 1 step but the time embedding's fan-in,
the finetuner and the distiller resume bit-exactly at every step (the
``test_resume.py`` pattern), and a poisoned SWiPe step is skipped like a
``Trainer`` one."""

import json

import numpy as np
import pytest

from repro.diffusion import ConsistencyConfig, ConsistencyDistiller
from repro.model import Aeris
from repro.parallel import RankTopology, SwipeEngine
from repro.train import MultistepConfig, MultistepFinetuner
from repro.train.trainer import LR_BACKOFF_FACTOR
from tests.train.test_trainer import TINY16

N_STEPS = 5


def _batch(archive, size, seed):
    indices = np.random.default_rng(seed).choice(
        archive.split_indices("train"), size=size, replace=False)
    return archive.training_batch(
        indices, archive.state_normalizer(), archive.residual_normalizer(),
        archive.forcing_normalizer())


def _swipe(archive, pp, dp=1):
    topo = RankTopology(dp=dp, pp=pp, wp_grid=(1, 1), sp=1)
    return SwipeEngine(TINY16, archive, topo, lr=1e-3, seed=0)


def _swipe_step(engine, archive, gas=1):
    cond, residual, forc = _batch(archive, 4, seed=len(engine.history))
    x_t, t, v = engine.make_training_pairs(residual)
    return engine.train_step(x_t, t, v, cond, forc, gas=gas)


class TestOneStageIsTheMonolithicStep:
    #: The staged path sums the time embedding's fan-in per stage first,
    #: one sweep sums it block by block: only these gradients associate
    #: differently (equal at initialization, where adaLN-zero makes the
    #: blocks' contributions vanish).
    TIME_EMBED = ("time_embed.proj.weight", "time_embed.proj.bias")

    def test_pipeline_depth_at_dp1_gas1(self, tiny_archive):
        """PP = 1 runs ``Aeris.forward`` and one sweep; PP = L + 2 runs the
        stages with boundary copies.  At DP = 1 and GAS = 1, from trained
        weights, the loss and every gradient but the time embedding's are
        equal."""
        source = _swipe(tiny_archive, 1)
        for _ in range(3):
            _swipe_step(source, tiny_archive)
        payload = source.state_payload()
        losses, grads = [], []
        for pp in (1, TINY16.pp_stages):
            engine = _swipe(tiny_archive, pp)
            engine.restore(*payload)
            assert engine.pipelines[0].n_stages == pp
            losses.append(_swipe_step(engine, tiny_archive))
            grads.append({n: p.grad for n, p in
                          engine.model.named_parameters()})
        assert losses[0] == losses[1]
        for name, grad in grads[0].items():
            if name in self.TIME_EMBED:
                np.testing.assert_allclose(
                    grads[1][name], grad, rtol=0,
                    atol=1e-6 * np.abs(grad).max(), err_msg=name)
            else:
                np.testing.assert_array_equal(grads[1][name], grad,
                                              err_msg=name)

    def test_other_depths_rejected(self, tiny_archive):
        with pytest.raises(ValueError, match="pipeline stages"):
            _swipe(tiny_archive, pp=2)


def _state_arrays(engine):
    arrays = ([p.data for p in engine.model.parameters()]
              + engine.optimizer.exp_avg + engine.optimizer.exp_avg_sq)
    if engine.ema is not None:
        arrays += [engine.ema.shadow[k] for k in sorted(engine.ema.shadow)]
    return arrays


def _generators(engine):
    return [rng.bit_generator.state
            for rng in [engine.rng_batch, *engine.rngs_t, *engine.rngs_z]]


def _finetuner(archive, seed):
    return MultistepFinetuner(Aeris(TINY16, seed=seed), archive,
                              MultistepConfig(rollout_steps=2, batch_size=2,
                                              seed=0))


def _distiller(archive, seed):
    teacher = Aeris(TINY16, seed=0)
    teacher.eval()
    return ConsistencyDistiller(teacher, Aeris(TINY16, seed=seed),
                                ConsistencyConfig(seed=0))


@pytest.fixture(scope="module")
def distill_batches(tiny_archive):
    """``(x0, cond, forc)`` per step: the distiller's caller-owned
    batches."""
    return [(residual, cond, forc) for cond, residual, forc in
            (_batch(tiny_archive, 2, seed) for seed in range(N_STEPS))]


@pytest.mark.parametrize("build", [_finetuner, _distiller],
                         ids=["finetuner", "distiller"])
def test_resume_at_every_step_matches_uninterrupted(tiny_archive,
                                                    distill_batches, build):
    """``restore(state_payload())`` into a fresh engine (another init)
    after *each* step of a 5-step run, then finish: weights, moments,
    EMA, history, ``images_seen`` and every generator equal the
    uninterrupted run."""
    def step(engine):
        if isinstance(engine, ConsistencyDistiller):
            return engine.train_step(*distill_batches[len(engine.history)])
        return engine.train_step()

    straight = build(tiny_archive, 0)
    for _ in range(N_STEPS):
        step(straight)
    source = build(tiny_archive, 0)
    for k in range(1, N_STEPS):
        step(source)
        shards, extra = source.state_payload()
        resumed = build(tiny_archive, 99)
        resumed.restore({sec: {n: a.copy() for n, a in arrays.items()}
                         for sec, arrays in shards.items()},
                        json.loads(json.dumps(extra)))
        while len(resumed.history) < N_STEPS:
            step(resumed)
        assert resumed.history == straight.history, k
        assert resumed.images_seen == straight.images_seen
        for got, want in zip(_state_arrays(resumed),
                             _state_arrays(straight)):
            np.testing.assert_array_equal(got, want, err_msg=f"k={k}")
        assert _generators(resumed) == _generators(straight)


def test_poisoned_swipe_step_is_skipped_and_backs_off(tiny_archive):
    """A non-finite loss on one replica skips the whole DP step — no
    allreduce, no update on any replica, no images — and halves the LR of
    the next clean step."""
    engine = _swipe(tiny_archive, TINY16.pp_stages, dp=2)
    _swipe_step(engine, tiny_archive, gas=2)
    before = [r.state_dict() for r in engine.replicas]
    images, reduced = engine.images_seen, engine.cluster.stats.total_bytes(
        "allreduce")
    poisoned = next(iter(engine.replicas[1].parameters()))
    saved = poisoned.data.copy()
    poisoned.data[...] = np.nan
    assert not np.isfinite(_swipe_step(engine, tiny_archive, gas=2))
    poisoned.data[...] = saved
    assert engine.skipped_steps == 1
    assert engine.lr_backoff == LR_BACKOFF_FACTOR
    assert engine.images_seen == images
    assert engine.cluster.stats.total_bytes("allreduce") == reduced
    for replica, state in zip(engine.replicas, before):
        for name, array in replica.state_dict().items():
            np.testing.assert_array_equal(array, state[name], err_msg=name)
    assert np.isfinite(_swipe_step(engine, tiny_archive, gas=2))
    assert engine.optimizer.lr == 1e-3 * LR_BACKOFF_FACTOR
