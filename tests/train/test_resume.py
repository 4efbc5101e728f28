"""Resume semantics: bit-exact continuation from an atomic checkpoint —
for every parameterization that shares ``Trainer``'s loop — and the
NaN/Inf step guard."""

import json
import os

import numpy as np
import pytest

from repro.baselines import DeterministicTrainer, EdmTrainer
from repro.model import Aeris
from repro.train import Trainer, TrainerConfig
from repro.train.trainer import LR_BACKOFF_FACTOR, LR_RECOVER_STEPS
from tests.train.test_trainer import TINY16

CFG = TrainerConfig(batch_size=4, peak_lr=3e-3, warmup_images=40,
                    total_images=40_000, decay_images=400, seed=0)


#: every class that runs ``Trainer``'s loop; ``Trainer`` keeps the bare id
LOOPS = (Trainer, EdmTrainer, DeterministicTrainer)
LOOP_CASES = [
    pytest.param(cls, guarded, id="-".join(
        ([] if cls is Trainer else [cls.__name__])
        + ["guarded" if guarded else "unguarded"]))
    for cls in LOOPS for guarded in (False, True)]


def _trainer(tiny_archive, seed=0, cls=Trainer):
    return cls(Aeris(TINY16, seed=seed), tiny_archive, CFG)


def _state_arrays(trainer):
    """Every array of the loop state: weights, Adam moments, EMA."""
    return ([p.data for p in trainer.model.parameters()]
            + trainer.optimizer.exp_avg + trainer.optimizer.exp_avg_sq
            + [trainer.ema.shadow[k] for k in sorted(trainer.ema.shadow)])


#: Trainer attributes that are wiring, not loop state: built from the
#: constructor arguments and never changed by a step.
WIRING = {"plan", "model", "archive", "config", "flow", "state_norm",
          "residual_norm", "forcing_norm", "optimizer", "schedule", "ema",
          "lat_weights", "var_weights", "injector", "guard",
          # a tally of rollbacks: a rollback must not rewind it, so it
          # rides in saved checkpoints only, not in the payload
          "step_retries"}


def _snapshot(trainer):
    """Everything a step can change: every non-wiring attribute of the
    trainer (generators by state), the optimizer's step count, and all
    state arrays."""
    snap = {}
    for name, value in vars(trainer).items():
        if name in WIRING:
            continue
        if isinstance(value, np.random.Generator):
            value = value.bit_generator.state
        snap[name] = value.copy() if isinstance(value, list) else value
    snap["optimizer.step_count"] = trainer.optimizer.step_count
    for i, array in enumerate(_state_arrays(trainer)):
        snap[f"array/{i}"] = array.copy()
    return snap


class TestBitExactResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path,
                                               tiny_archive):
        """fit(3) + save + load-into-fresh-trainer + fit(2) must equal
        fit(5) straight through — same losses, same weights, same EMA."""
        straight = _trainer(tiny_archive)
        straight.fit(5)

        first = _trainer(tiny_archive)
        first.fit(3)
        where = first.save(str(tmp_path / "ck"))

        resumed = _trainer(tiny_archive, seed=99)  # different init
        resumed.load(where)
        assert resumed.images_seen == 3 * CFG.batch_size
        assert resumed.history == first.history
        resumed.fit(2)

        assert resumed.history == straight.history
        for name, p in straight.model.named_parameters():
            np.testing.assert_array_equal(
                dict(resumed.model.named_parameters())[name].data, p.data,
                err_msg=name)
        for name in straight.ema.shadow:
            np.testing.assert_array_equal(resumed.ema.shadow[name],
                                          straight.ema.shadow[name],
                                          err_msg=f"ema/{name}")

    @pytest.mark.parametrize("cls,guarded", LOOP_CASES)
    def test_resume_at_every_step_matches_uninterrupted(self, tiny_archive,
                                                        cls, guarded):
        """``restore(state_payload())`` into a fresh trainer after *each*
        step of a 5-step run, then finish: weights, moments, EMA, history
        and all three generator states equal the uninterrupted run."""
        import dataclasses
        cfg = dataclasses.replace(CFG, guarded=guarded)

        def fresh(seed):
            return cls(Aeris(TINY16, seed=seed), tiny_archive, cfg)

        straight = fresh(0)
        straight.fit(5)
        source = fresh(0)
        for k in range(1, 5):
            source.fit(1)
            shards, extra = source.state_payload()
            resumed = fresh(99)  # different init
            # through JSON like a manifest, and detached from the source
            resumed.restore({sec: {n: a.copy() for n, a in arrays.items()}
                             for sec, arrays in shards.items()},
                            json.loads(json.dumps(extra)))
            resumed.fit(5 - k)
            assert resumed.history == straight.history, k
            assert resumed.images_seen == straight.images_seen
            for got, want in zip(_state_arrays(resumed),
                                 _state_arrays(straight)):
                np.testing.assert_array_equal(got, want, err_msg=f"k={k}")
            for name in ("rng_batch", "rng_t", "rng_z"):
                assert (getattr(resumed, name).bit_generator.state
                        == getattr(straight, name).bit_generator.state), name

    def test_payload_covers_every_loop_attribute(self, tiny_archive):
        """Completeness: scribble over a trainer, restore a payload taken
        before, and every attribute must be back.  A loop attribute added
        to ``Trainer`` (or to a baseline) but not to ``state_payload`` /
        ``restore`` shows up here as a difference in ``vars``."""
        for cls in LOOPS:
            trainer = _trainer(tiny_archive, cls=cls)
            trainer.fit(2)
            trainer.lr_backoff, trainer._clean_streak = 0.25, 3
            trainer.skipped_steps = 2
            shards, extra = trainer.state_payload()
            shards = {sec: {n: a.copy() for n, a in arrays.items()}
                      for sec, arrays in shards.items()}
            before = _snapshot(trainer)

            trainer.fit(1)  # moves weights, moments, EMA, counters, rngs
            for array in _state_arrays(trainer):
                array += 1.0
            trainer.lr_backoff, trainer._clean_streak = 1.0, 0
            trainer.skipped_steps, trainer.images_seen = 0, -1.0
            trainer.optimizer.step_count = 77
            assert _snapshot(trainer).keys() == before.keys()

            trainer.restore(shards, extra)
            after = _snapshot(trainer)
            for name, want in before.items():
                np.testing.assert_equal(after[name], want,
                                        err_msg=f"{cls.__name__}.{name}")


class TestNaNGuard:
    def test_poisoned_step_skipped_and_lr_backed_off(self, tiny_archive):
        trainer = _trainer(tiny_archive)
        trainer.fit(2)
        images_before = trainer.images_seen
        weights_before = {n: p.data.copy()
                          for n, p in trainer.model.named_parameters()}
        # Poison the model: the next loss goes non-finite.
        first = next(iter(trainer.model.parameters()))
        saved = first.data.copy()
        first.data[...] = np.nan
        value = trainer.train_step()
        assert not np.isfinite(value)
        assert trainer.skipped_steps == 1
        assert trainer.lr_backoff == LR_BACKOFF_FACTOR
        assert trainer.images_seen == images_before  # no images consumed
        first.data[...] = saved
        for name, p in trainer.model.named_parameters():
            np.testing.assert_array_equal(p.data, weights_before[name],
                                          err_msg=name)

    def test_backoff_recovers_after_clean_streak(self, tiny_archive):
        cfg = TrainerConfig(batch_size=4, peak_lr=3e-3, warmup_images=40,
                            total_images=40_000, decay_images=400, seed=0)
        trainer = Trainer(Aeris(TINY16, seed=0), tiny_archive, cfg)
        trainer.lr_backoff = 0.5
        trainer.fit(LR_RECOVER_STEPS - 1)
        assert trainer.lr_backoff == 0.5
        trainer.fit(1)
        assert trainer.lr_backoff == 1.0


class TestCorruptionFallbackResume:
    """Satellite of the SDC defense: at-rest checkpoint rot must not end
    a run while an older intact generation is retained."""

    @pytest.mark.parametrize("rot", ["truncated", "empty-object"])
    def test_rotten_manifest_falls_back_like_a_rotten_shard(
            self, tmp_path, tiny_archive, rot):
        """A manifest that no longer parses, or parses to the wrong
        structure, is corruption too: typed, booked, stepped over."""
        from repro.obs import monitored
        from repro.train import (CheckpointCorruption,
                                 newest_valid_checkpoint,
                                 read_sharded_checkpoint)

        straight = _trainer(tiny_archive)
        straight.fit(4)
        saver = _trainer(tiny_archive)
        for step in (2, 4):
            saver.fit(2)
            saver.save(os.path.join(tmp_path, f"step-{step:08d}"))
        manifest = os.path.join(tmp_path, "step-00000004", "manifest.json")
        with open(manifest) as fh:
            text = fh.read()
        with open(manifest, "w") as fh:
            fh.write(text[:len(text) // 2] if rot == "truncated" else "{}")
        with pytest.raises(CheckpointCorruption, match="manifest"):
            read_sharded_checkpoint(os.path.dirname(manifest))

        resumed = _trainer(tiny_archive, seed=99)  # different init
        with monitored() as session:
            loaded = newest_valid_checkpoint(str(tmp_path))[0]
            assert session.registry.counter(
                "resilience.checkpoints_rejected").total() == 1
            assert len(session.recorder.events(
                kind="checkpoint.corrupt", min_severity="critical")) == 1
        assert loaded.endswith("step-00000002")
        resumed.load(loaded)
        assert resumed.images_seen == 2 * CFG.batch_size
        resumed.fit(2)
        assert resumed.history == straight.history
        for name, p in straight.model.named_parameters():
            np.testing.assert_array_equal(
                dict(resumed.model.named_parameters())[name].data, p.data,
                err_msg=name)
