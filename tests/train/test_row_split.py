"""A one-replica, one-microbatch training step splits its batch rows over
two processes: a kept worker runs the first rows, this process the last,
and every reduction over rows of a parameter's gradient keeps the serial
order across them.  Every observable of the serial step — loss history,
weights, Adam moments, EMA shadow, generator states — is equal bit for
bit.  Each case forces the core count both ways by monkeypatching
``rows._CORES``, so it runs the same on a 1-core box."""

import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import types

import numpy as np
import pytest

from repro import obs, rows
from repro.baselines import DeterministicTrainer
from repro.diffusion import (ConsistencyConfig, ConsistencyDistiller,
                             SolverConfig)
from repro.kernels import abft_guard, disable_kernels
from repro.model import Aeris
from repro.resilience import FaultInjector, FaultPlan
from repro.rows import WORKERS
from repro.tensor import autocast_bf16, count_flops
from repro.train import (MultistepConfig, MultistepFinetuner, Trainer,
                         TrainerConfig)
from tests.diffusion.test_consistency import make_inputs
from tests.parallel.test_forked_replicas import (  # noqa: F401
    assert_reaped, forks)
from tests.train.test_trainer import TINY16

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
STEPS = 5


def trainer_for(archive, batch, cls=Trainer, injector=None):
    config = TrainerConfig(batch_size=batch, peak_lr=3e-3, warmup_images=40,
                           total_images=40_000, decay_images=400, seed=0)
    extra = {} if injector is None else {"injector": injector}
    return cls(Aeris(TINY16, seed=0), archive, config, **extra)


def fitted(archive, batch, cores, monkeypatch, cls=Trainer, steps=STEPS):
    monkeypatch.setattr(rows, "_CORES", cores)
    trainer = trainer_for(archive, batch, cls)
    trainer.fit(steps)
    return trainer


def assert_same_trainers(a, b):
    assert a.history == b.history
    for (name, pa), pb in zip(a.model.named_parameters(),
                              b.model.parameters(), strict=True):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
    for ma, mb in zip(a.optimizer.exp_avg + a.optimizer.exp_avg_sq,
                      b.optimizer.exp_avg + b.optimizer.exp_avg_sq,
                      strict=True):
        np.testing.assert_array_equal(ma, mb)
    assert a.optimizer.step_count == b.optimizer.step_count
    assert a.ema.shadow.keys() == b.ema.shadow.keys()
    for name, shadow in a.ema.shadow.items():
        np.testing.assert_array_equal(shadow, b.ema.shadow[name],
                                      err_msg=name)
    assert a.images_seen == b.images_seen
    assert a.state_payload()[1]["rng"] == b.state_payload()[1]["rng"]


class TestBitExact:
    @pytest.mark.parametrize("batch", [4, 5, 8])
    def test_split_equals_serial(self, tiny_archive, batch, monkeypatch,
                                 forks):
        """Batch 5 is two rows on the worker and three here."""
        serial = fitted(tiny_archive, batch, 1, monkeypatch)
        assert forks == []
        split = fitted(tiny_archive, batch, 2, monkeypatch)
        assert len(forks) == 1 and rows.WORKERS.pids == forks
        assert_same_trainers(serial, split)

    def test_bf16_autocast(self, tiny_archive, monkeypatch, forks):
        with autocast_bf16():
            serial = fitted(tiny_archive, 4, 1, monkeypatch)
            split = fitted(tiny_archive, 4, 2, monkeypatch)
        assert len(forks) == 1
        assert_same_trainers(serial, split)

    def test_deterministic_baseline(self, tiny_archive, monkeypatch, forks):
        serial = fitted(tiny_archive, 4, 1, monkeypatch,
                        cls=DeterministicTrainer)
        split = fitted(tiny_archive, 4, 2, monkeypatch,
                       cls=DeterministicTrainer)
        assert len(forks) == 1
        assert_same_trainers(serial, split)

    def test_consistency_distiller(self, monkeypatch, forks):
        """The student's jump against the target is each row's own terms:
        the distiller splits too."""
        x0, cond, forc = make_inputs(batch=4)
        distillers = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            distiller = ConsistencyDistiller(Aeris(TINY16, seed=0),
                                             Aeris(TINY16, seed=0),
                                             ConsistencyConfig(seed=0))
            for _ in range(STEPS):
                distiller.train_step(x0, cond, forc)
            distillers.append(distiller)
        assert len(forks) == 1
        assert_same_trainers(*distillers)

    def test_a_fault_injector(self, tiny_archive, monkeypatch, forks):
        """One rank makes no transfers: an injector changes nothing."""
        trainers = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            trainer = trainer_for(tiny_archive, 4, injector=FaultInjector(
                FaultPlan(seed=1, p_bitflip=0.5, p_drop=0.5)))
            trainer.fit(STEPS)
            trainers.append(trainer)
        assert len(forks) == 1 and not trainers[1].injector.injected
        assert_same_trainers(*trainers)

    def test_kernels_off_stays_serial(self, tiny_archive, monkeypatch,
                                      forks):
        """The Tensor chains sum their parameters' gradients in the
        autograd core, which no split folds: the step runs here."""
        with disable_kernels():
            serial = fitted(tiny_archive, 4, 1, monkeypatch)
            other = fitted(tiny_archive, 4, 2, monkeypatch)
        assert forks == []
        assert_same_trainers(serial, other)

    def test_a_restore_partway(self, tiny_archive, monkeypatch, forks):
        """The restore writes the weights in their shared mapping, where
        the kept worker reads them at the next step."""
        monkeypatch.setattr(rows, "_CORES", 1)
        serial = trainer_for(tiny_archive, 4)
        serial.fit(3)
        payload = copied_payload(serial)
        serial.fit(3)
        split = fitted(tiny_archive, 4, 2, monkeypatch, steps=2)
        split.restore(*payload)
        split.fit(3)
        assert len(forks) == 1
        assert_same_trainers(serial, split)

    def test_cores_two_one_two(self, tiny_archive, monkeypatch, forks):
        serial = fitted(tiny_archive, 4, 1, monkeypatch, steps=6)
        trainer = trainer_for(tiny_archive, 4)
        for cores in (2, 1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            trainer.fit(2)
        assert len(forks) == 2 and rows.WORKERS.pids == forks[1:]
        assert_reaped(forks[:1])
        assert_same_trainers(serial, trainer)


class TestOwnersShareOneSet:
    def test_steps_validation_and_rollouts_in_turn(self, tiny_archive,
                                                   monkeypatch, forks):
        """``fit(1)``, ``validation_loss()`` and a 4-member ensemble
        rollout at batch 8, five times in turn: the one set forks once per
        owner, on its first use — the engine, the model the validation's
        8-row forwards run, the forecaster — not at every switch, and
        every value is the serial run's."""
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            trainer = trainer_for(tiny_archive, 8)
            forecaster = trainer.forecaster(SolverConfig(2))
            idx = int(tiny_archive.split_indices("test")[0])
            values, counts = [], []
            for k in range(5):
                trainer.fit(1)
                values.append(trainer.validation_loss())
                values.append(forecaster.ensemble_rollout(
                    tiny_archive.fields[idx], n_steps=1, n_members=4,
                    seed=k, start_index=idx))
                counts.append(len(forks))
            runs.append((trainer, values, counts))
        (serial, want, none), (split, got, counts) = runs
        assert none == [0] * 5 and counts == [3] * 5
        assert_same_trainers(serial, split)
        for a, b in zip(want, got, strict=True):
            np.testing.assert_array_equal(a, b)


def new_weights(trainer, how: str, payload) -> None:
    """Give ``trainer`` other weights between steps, ``how``: rebound by
    ``load_state_dict`` or ``p.data = …``, written in place by ``restore``
    (of ``payload``), or ``"none"``."""
    other = Aeris(TINY16, seed=7)
    if how == "none":
        return
    if how == "load_state_dict":
        trainer.model.load_state_dict(other.state_dict())
    elif how == "rebind":
        for p, q in zip(trainer.model.parameters(), other.parameters()):
            p.data = q.data * 0.5
    else:
        trainer.restore(*payload)


def copied_payload(trainer):
    shards, extra = trainer.state_payload()
    return ({section: {k: a.copy() for k, a in arrays.items()}
             for section, arrays in shards.items()}, extra)


class TestSharedWeights:
    """The worker reads the weights in the shared mapping the optimizer
    seats them in: each step sends it the batch alone, and weights the
    caller changes between steps reach it however they were changed."""

    @pytest.mark.parametrize("how", ["load_state_dict", "rebind", "restore"])
    def test_a_split_after_new_weights(self, tiny_archive, how, monkeypatch,
                                       forks):
        monkeypatch.setattr(rows, "_CORES", 1)
        donor = trainer_for(tiny_archive, 4)
        donor.fit(3)
        payload = copied_payload(donor)
        trainers = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            trainer = trainer_for(tiny_archive, 4)
            trainer.fit(2)
            new_weights(trainer, how, payload)
            trainer.fit(2)
            trainers.append(trainer)
        assert len(forks) == 1
        assert_same_trainers(*trainers)

    def test_two_trainers_on_one_model_in_turn(self, tiny_archive,
                                               monkeypatch, forks):
        """The second adopts the first's seat; the one set re-forks once
        for each, not at every switch, and every step equals serial."""
        pairs = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            first = trainer_for(tiny_archive, 4)
            second = Trainer(first.model, tiny_archive, dataclasses.replace(
                first.config, seed=1))
            assert second.optimizer.seat.flat is first.optimizer.seat.flat
            for _ in range(3):
                first.fit(1)
                second.fit(1)
            pairs.append((first, second))
        assert len(forks) == 2
        for serial, split in zip(*pairs):
            assert_same_trainers(serial, split)

    def test_a_worker_writing_a_weight_raises_here(self, tiny_archive,
                                                   monkeypatch):
        monkeypatch.setattr(rows, "_CORES", 2)
        trainer = trainer_for(tiny_archive, 4, cls=WritesAWeight)
        before = copied_payload(trainer)[0]["model"]
        with pytest.raises(ValueError, match="read-only") as info:
            trainer.train_step()
        if hasattr(info.value, "add_note"):                   # >= 3.11
            assert "forked worker" in "".join(info.value.__notes__)
        assert rows.WORKERS.pids == [] and trainer.history == []
        for name, p in trainer.model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
            assert p.data.flags.writeable

    def test_the_request_holds_no_weights(self, tiny_archive, monkeypatch,
                                          forks):
        """The worker is sent its bounds, its rows of the network inputs
        (the first ``n // 2``), the whole ``extra``, the switches and the
        warning filters: no parameter array (those arrays and a few
        hundred bytes)."""
        monkeypatch.setattr(rows, "_CORES", 2)
        sent = []

        def dumps(obj, protocol):
            sent.append(pickle.dumps(obj, protocol))
            return sent[-1]

        monkeypatch.setattr(rows, "pickle", types.SimpleNamespace(
            dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        trainer = trainer_for(tiny_archive, 4)
        batches = []
        trainer._draw = lambda draw=trainer._draw: batches.append(draw()) \
            or batches[-1]
        trainer.fit(2)
        assert len(forks) == 1 and len(sent) == 2
        for message, batch in zip(sent, batches):
            lo, hi, request, _, _, switches, _ = pickle.loads(message)
            got, gas, first, n = request
            assert (lo, hi, gas, first, n) == (1, 2, 1, 0, 4)
            arrays = [np.asarray(a) for a in (*(a[:2] for a in batch.inputs),
                                              *batch.extra)]
            assert [np.asarray(a).tobytes()
                    for a in (*got.inputs, *got.extra)] == \
                [a.tobytes() for a in arrays]
            assert len(pickle.dumps(request, pickle.HIGHEST_PROTOCOL)) < \
                sum(a.nbytes for a in arrays) + 512
            assert len(switches) == len(rows._SWITCHES)

    def test_stress_rebinds_and_restores(self, tiny_archive, monkeypatch,
                                         forks):
        """200 split steps, the weights rebound, reloaded or restored
        every few: equal to the serial run throughout (a worker reading a
        stale or half-written weight would not be)."""
        monkeypatch.setattr(rows, "_CORES", 1)
        donor = trainer_for(tiny_archive, 4)
        donor.fit(1)
        payload = copied_payload(donor)
        trainers = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            trainer = trainer_for(tiny_archive, 4)
            for k in range(40):
                trainer.fit(5)
                new_weights(trainer, ("rebind", "load_state_dict",
                                      "restore", "none")[k % 4], payload)
            trainers.append(trainer)
        assert len(forks) == 1
        assert_same_trainers(*trainers)


class WritesAWeight(Trainer):
    def _loss(self, pred, rows, *extra):
        if WORKERS.in_worker:
            self.model.parameters()[0].data[...] = 0.0
        return super()._loss(pred, rows, *extra)


class DiesOnce(Trainer):
    """A trainer whose kept worker kills itself inside its first step
    after ``marker`` appears (set before the first step: a worker runs the
    trainer it was forked from)."""

    marker = ""

    def _loss(self, pred, rows, *extra):
        if WORKERS.in_worker and os.path.exists(self.marker):
            os.remove(self.marker)
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._loss(pred, rows, *extra)


class RaisesInWorker(Trainer):
    def _loss(self, pred, rows, *extra):
        if WORKERS.in_worker:
            raise ValueError("worker rows failed")
        return super()._loss(pred, rows, *extra)


class TestFailures:
    def test_a_worker_killed_mid_step(self, tiny_archive, tmp_path,
                                      monkeypatch, forks):
        """The death is a typed error raised from inside the step, the
        state is as before it (the failed draw aside), and the next step,
        on a new worker, is the serial one."""
        monkeypatch.setattr(rows, "_CORES", 1)
        serial = trainer_for(tiny_archive, 4)
        serial.fit(2)
        serial._draw()                    # the batch the failed step drew
        serial.fit(2)
        monkeypatch.setattr(rows, "_CORES", 2)
        trainer = trainer_for(tiny_archive, 4, cls=DiesOnce)
        trainer.marker = str(tmp_path / "die")
        trainer.fit(2)
        pid = rows.WORKERS.pids[0]
        open(trainer.marker, "w").close()
        with pytest.raises(ChildProcessError, match="SIGKILL"):
            trainer.train_step()
        assert rows.WORKERS.pids == [] and len(trainer.history) == 2
        assert_reaped([pid])
        trainer.fit(2)
        assert len(forks) == 2
        assert_same_trainers(serial, trainer)

    def test_a_worker_error_is_raised_here(self, tiny_archive, monkeypatch):
        monkeypatch.setattr(rows, "_CORES", 2)
        trainer = trainer_for(tiny_archive, 4, cls=RaisesInWorker)
        with pytest.raises(ValueError, match="worker rows failed") as info:
            trainer.train_step()
        if hasattr(info.value, "add_note"):                   # >= 3.11
            assert "forked worker" in "".join(info.value.__notes__)
        assert rows.WORKERS.pids == [] and trainer.history == []


class TestStaysSerial:
    """A GEMM guard addresses GEMMs by their order in the step; a FLOP
    counter or an obs sink would lose the worker's half.  None of them may
    fork, and each step is the serial one."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(rows, "_CORES", 2)

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)

    def test_the_spy_is_live(self, tiny_archive, no_fork):
        with pytest.raises(AssertionError, match="forked"):
            trainer_for(tiny_archive, 4).fit(1)

    def test_abft_guard(self, tiny_archive, no_fork):
        with abft_guard():
            trainer_for(tiny_archive, 4).fit(1)

    def test_flop_counting(self, tiny_archive, no_fork):
        with count_flops() as counter:
            trainer_for(tiny_archive, 4).fit(1)
        assert counter.forward > 0

    def test_observed(self, tiny_archive, no_fork):
        with obs.observed():
            trainer_for(tiny_archive, 4).fit(1)

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_under_four_rows(self, tiny_archive, batch, no_fork):
        """A one-row half does not pay for its process."""
        trainer_for(tiny_archive, batch).fit(1)

    def test_multistep_finetuner(self, tiny_archive, no_fork):
        """Its loss runs the model again, on the loss's rows."""
        MultistepFinetuner(Aeris(TINY16, seed=0), tiny_archive,
                           MultistepConfig(rollout_steps=2, batch_size=4)
                           ).fit(1)


#: The start of a script run in a fresh interpreter: the tiny archive, and
#: ``made``, the pids of the workers forked from here on.
FORKS_SPIED = """
import os
from repro import rows
from repro.data import ReanalysisConfig, SyntheticReanalysis
from tests.train.test_row_split import assert_same_trainers, trainer_for
made = []
real = os.fork
def fork():
    pid = real()
    if pid:
        made.append(pid)
    return pid
os.fork = fork
archive = SyntheticReanalysis(ReanalysisConfig(
    height=16, width=32, train_years=0.1, val_years=0.05, test_years=0.05,
    seed=0, spinup_steps=20))
"""

#: Ten trainers stepped in turn, then every worker pid any of them forked.
TEN_TRAINERS = FORKS_SPIED + """
rows._CORES = 2
trainers = []
for _ in range(10):
    trainers.append(trainer_for(archive, 4))
    trainers[-1].fit(1)
def alive(pid):
    try:
        return os.waitpid(pid, os.WNOHANG) == (0, 0)
    except ChildProcessError:                    # reaped
        return False
live = [pid for pid in made if alive(pid)]
assert len(live) <= rows._CORES - 1, live
assert live == rows.WORKERS.pids, (live, rows.WORKERS.pids)
print(*made)
"""

#: Under the spawn start method, a serial trainer and a split one stepped
#: alike; then the forks the split made.
UNDER_SPAWN = """
import multiprocessing
multiprocessing.set_start_method("spawn")
""" + FORKS_SPIED + """
trainers = []
for cores in (1, 2):
    rows._CORES = cores
    trainers.append(trainer_for(archive, 4))
    trainers[-1].fit(2)
assert_same_trainers(*trainers)
assert made == rows.WORKERS.pids, (made, rows.WORKERS.pids)
print(*made)
"""


def in_fresh_interpreter(script: str) -> str:
    """``script``'s standard output, run by a new interpreter here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(REPO, "src"), REPO])}
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestKeptWorkersBound:
    def test_one_set_lives_and_none_outlive_the_interpreter(self):
        """Each new trainer's first split re-forks the one set, retiring
        the previous worker; the last is reaped at exit."""
        pids = [int(pid)
                for pid in in_fresh_interpreter(TEN_TRAINERS).split()]
        assert len(pids) == 10
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestStandardLibrary:
    def test_forks_under_any_start_method(self):
        """Python 3.14 defaults to ``forkserver``: the workers fork
        whatever the process's start method."""
        assert len(in_fresh_interpreter(UNDER_SPAWN).split()) == 1

    def test_importing_leaves_multiprocessing_unloaded(self):
        """Only a split step imports it (about 0.75 MB)."""
        assert in_fresh_interpreter(
            "import sys, repro, repro.serve, repro.train\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing'))"
        ).split() == ["[]"]
