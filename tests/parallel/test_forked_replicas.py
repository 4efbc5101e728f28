"""Forked DP replicas: a SWiPe step runs replica groups 1… on worker
processes, forked at the engine's first split step and kept, while this
process runs group 0, and every observable of the serial step — losses,
weights, Adam moments, metered bytes and ops in booking order, generator
states, the faults an injector deals — is equal bit for bit.  Each case
forces the core count both ways by monkeypatching ``rows._CORES``, so it
runs the same on a 1-core box.
The process's one worker set (``rows.WORKERS``) re-forks for a new engine,
and is retired and reaped at exit, when the core count changes and when a
group fails."""

import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from repro import obs, rows
from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.kernels import abft_guard, disable_kernels
from repro.model import Aeris
from repro.parallel import RankTopology, SwipeEngine
from repro.resilience import (BitFlip, Drop, FailStop, FaultInjector,
                              FaultPlan, RankFailure, Straggle, state_digest)
from repro.tensor import autocast_bf16, count_flops
from repro.train import Batch
from tests.train.test_trainer import TINY16

ROWS_PER_REPLICA = 4
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def small_archive():
    return SyntheticReanalysis(ReanalysisConfig(
        height=16, width=32, train_years=0.3, val_years=0.1, test_years=0.1,
        seed=3, spinup_steps=40))


@pytest.fixture(scope="module")
def archive():
    return small_archive()


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks the step makes (the real ``os.fork`` runs)."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


def engine_for(archive, dp, injector=None, cls=SwipeEngine):
    topo = RankTopology(dp=dp, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
    return cls(TINY16, archive, topo, lr=1e-3, seed=0, injector=injector)


def step_args(engine, archive, k):
    """``train_step``'s arrays for the ``k``-th batch of the archive."""
    batch = engine.topology.dp * ROWS_PER_REPLICA
    idx = archive.split_indices("train")[k * batch:(k + 1) * batch]
    cond, residual, forc = archive.training_batch(
        idx, engine.state_norm, engine.residual_norm, engine.forcing_norm)
    return (*engine.make_training_pairs(residual), cond, forc)


def swipe_step(engine, archive, k, gas):
    return engine.train_step(*step_args(engine, archive, k), gas=gas)


def run(archive, dp, gas, cores, monkeypatch, steps=3):
    monkeypatch.setattr(rows, "_CORES", cores)
    engine = engine_for(archive, dp)
    losses = [swipe_step(engine, archive, k, gas) for k in range(steps)]
    return engine, losses


def assert_same_engines(a, b):
    assert a.history == b.history
    for (name, pa), pb in zip(a.model.named_parameters(),
                              b.model.parameters(), strict=True):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
    for ma, mb in zip(a.optimizer.exp_avg + a.optimizer.exp_avg_sq,
                      b.optimizer.exp_avg + b.optimizer.exp_avg_sq,
                      strict=True):
        np.testing.assert_array_equal(ma, mb)
    assert a.optimizer.step_count == b.optimizer.step_count
    # equal counts, booked in the same order
    assert list(a.cluster.stats.bytes.items()) == \
        list(b.cluster.stats.bytes.items())
    assert list(a.cluster.stats.ops.items()) == \
        list(b.cluster.stats.ops.items())
    assert a.state_payload()[1]["rng"] == b.state_payload()[1]["rng"]


class TestGroups:
    @pytest.mark.parametrize("cores, n, bounds", [
        (2, 2, [0, 1, 2]), (2, 4, [0, 2, 4]), (2, 3, [0, 1, 3]),
        (3, 4, [0, 1, 2, 4]), (4, 2, [0, 1, 2]), (2, 1, [0, 1]),
        (1, 4, [0, 4])])
    def test_groups_by_items_and_cores(self, cores, n, bounds, monkeypatch):
        monkeypatch.setattr(rows, "_CORES", cores)
        assert rows._fork_bounds(n) == bounds

    def test_a_foreign_thread_keeps_one_group(self, monkeypatch):
        monkeypatch.setattr(rows, "_CORES", 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, name="foreign")
        thread.start()
        try:
            assert rows._fork_bounds(2) == [0, 2]
        finally:
            release.set()
            thread.join()
        assert rows._fork_bounds(2) == [0, 1, 2]


class TestBitExact:
    @pytest.mark.parametrize("dp", [2, 4])
    @pytest.mark.parametrize("gas", [1, 4])
    def test_forked_equals_serial(self, archive, dp, gas, monkeypatch,
                                  forks):
        serial, _ = run(archive, dp, gas, 1, monkeypatch)
        assert forks == []
        forked, _ = run(archive, dp, gas, 2, monkeypatch)
        assert len(forks) == 1                   # one worker per engine
        assert_same_engines(serial, forked)

    def test_three_groups(self, archive, monkeypatch, forks):
        serial, _ = run(archive, 4, 1, 1, monkeypatch, steps=2)
        forked, _ = run(archive, 4, 1, 3, monkeypatch, steps=2)
        assert len(forks) == 2                   # two workers per engine
        assert_same_engines(serial, forked)

    def test_a_worker_is_sent_only_its_replicas_rows(self, archive,
                                                     monkeypatch, forks):
        """Each worker is sent its replicas' rows of the network inputs
        (and the whole ``extra``, which ``_loss`` reads by global row)."""
        sent = []

        def dumps(obj, protocol):
            sent.append(obj)
            return pickle.dumps(obj, protocol)

        monkeypatch.setattr(rows, "pickle", types.SimpleNamespace(
            dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        monkeypatch.setattr(rows, "_CORES", 3)
        engine = engine_for(archive, 4)
        args = step_args(engine, archive, 0)
        engine.train_step(*args, gas=1)
        x_t, t, v_target, cond, forc = args
        inputs = (x_t / engine.flow.sigma_d, t, cond, forc)
        assert [(lo, hi) for lo, hi, *_ in sent] == [(1, 2), (2, 4)]
        for lo, hi, (batch, gas, first, n), *_ in sent:
            mine = slice(lo * ROWS_PER_REPLICA, hi * ROWS_PER_REPLICA)
            assert (gas, first, n) == (1, mine.start, 4 * ROWS_PER_REPLICA)
            for got, whole in zip(batch.inputs, inputs, strict=True):
                np.testing.assert_array_equal(got, whole[mine])
            np.testing.assert_array_equal(batch.extra[0], v_target)
        assert len(forks) == 2

    @pytest.mark.parametrize("switch", [autocast_bf16, disable_kernels])
    def test_a_worker_runs_under_the_callers_switches(self, archive, switch,
                                                      monkeypatch, forks):
        """The worker is forked outside ``switch``; the next step runs
        inside it on both processes, as the serial step does."""
        engines = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            engine = engine_for(archive, 2)
            swipe_step(engine, archive, 0, gas=1)
            with switch():
                swipe_step(engine, archive, 1, gas=1)
            engines.append(engine)
        assert len(forks) == 1
        assert_same_engines(*engines)

    def test_forked_unobserved_equals_serial_observed(self, archive,
                                                      monkeypatch, forks):
        """The dp = 2 twin of ``test_swipe_numerics_identical_enabled_vs_
        disabled``: observability keeps the step in this process."""
        monkeypatch.setattr(rows, "_CORES", 2)

        def one_step():
            engine = engine_for(archive, 2)
            loss = swipe_step(engine, archive, 0, gas=4)
            return loss, engine.model.state_dict(), \
                dict(engine.cluster.stats.bytes)

        loss_a, state_a, bytes_a = one_step()
        assert len(forks) == 1
        with obs.observed():
            loss_b, state_b, bytes_b = one_step()
        assert len(forks) == 1
        assert loss_a == loss_b
        assert bytes_a == bytes_b
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name],
                                          err_msg=name)


def golden_record(archive, dp, gas):
    """``state_digest`` of weights, Adam moments, step count and history
    after three steps, and the meter's ``(primitive, locality, count)``
    items in booking order."""
    engine = engine_for(archive, dp)
    for k in range(3):
        swipe_step(engine, archive, k, gas)
    opt = engine.optimizer
    arrays = {f"model/{n}": a for n, a in engine.model.state_dict().items()}
    for i, (m, v) in enumerate(zip(opt.exp_avg, opt.exp_avg_sq)):
        arrays[f"m/{i}"], arrays[f"v/{i}"] = m, v
    arrays["history"] = np.asarray(engine.history, dtype=np.float64)
    arrays["step_count"] = np.asarray(opt.step_count)
    stats = engine.cluster.stats
    return {"state": state_digest(arrays),
            "bytes": [[*key, n] for key, n in stats.bytes.items()],
            "ops": [[*key, n] for key, n in stats.ops.items()]}


class TestGolden:
    """``golden_dp_steps.json`` was recorded (``golden_record`` per key,
    ``json.dump(..., indent=1, sort_keys=True)``) when every DP replica
    was a model of its own, its weights mirrored after each step; one
    weight set reproduces it on either path."""

    @pytest.mark.parametrize("dp", [2, 4])
    @pytest.mark.parametrize("gas", [1, 4])
    @pytest.mark.parametrize("path", ["forked", "serial"])
    def test_reproduces_the_replicated_models(self, archive, dp, gas, path,
                                              monkeypatch, forks):
        monkeypatch.setattr(rows, "_CORES", 2 if path == "forked" else 1)
        with open(os.path.join(os.path.dirname(__file__),
                               "golden_dp_steps.json")) as fh:
            want = json.load(fh)[f"dp{dp}-gas{gas}"]
        assert golden_record(archive, dp, gas) == want
        assert len(forks) == (1 if path == "forked" else 0)


def assert_reaped(pids):
    """Each of ``pids`` is no child of this process (any more)."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


#: Run in a fresh interpreter: two forked steps, then the worker's pid.
TWO_STEPS = """
from repro import rows
from tests.parallel.test_forked_replicas import (engine_for, small_archive,
                                                 swipe_step)
rows._CORES = 2
archive = small_archive()
engine = engine_for(archive, 2)
for k in range(2):
    swipe_step(engine, archive, k, gas=1)
print(rows.WORKERS.pids[0])
"""


class TestKeptWorkers:
    def test_the_worker_ends_with_the_interpreter(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(REPO, "src"), REPO])}
        done = subprocess.run([sys.executable, "-c", TWO_STEPS], cwd=REPO,
                              env=env, capture_output=True, text=True,
                              check=True)
        pid = int(done.stdout.split()[-1])
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_a_new_engine_reforks_and_reaps_the_old_worker(
            self, archive, monkeypatch, forks):
        """The set outlives a finalised owner; the next owner's first
        split retires its worker and forks one that knows both."""
        monkeypatch.setattr(rows, "_CORES", 2)
        engine = engine_for(archive, 2)
        swipe_step(engine, archive, 0, gas=1)
        assert rows.WORKERS.pids == forks
        del engine
        gc.collect()
        assert rows.WORKERS.pids == forks
        swipe_step(engine_for(archive, 2), archive, 0, gas=1)
        assert len(forks) == 2 and rows.WORKERS.pids == forks[1:]
        assert_reaped(forks[:1])

    def test_cores_change_between_steps(self, archive, monkeypatch, forks):
        """2 → 3 → 1 cores: one worker, then two, then none."""
        serial, _ = run(archive, 4, 1, 1, monkeypatch)
        engine = engine_for(archive, 4)
        for k, cores in enumerate((2, 3, 1)):
            monkeypatch.setattr(rows, "_CORES", cores)
            swipe_step(engine, archive, k, gas=1)
        assert len(forks) == 3 and rows.WORKERS.pids == []
        assert_reaped(forks)
        assert_same_engines(serial, engine)

    def test_a_restore_partway_stays_bit_exact(self, archive, monkeypatch,
                                               forks):
        """The restore writes the weights in their shared mapping, where
        the worker reads them at the next step."""
        monkeypatch.setattr(rows, "_CORES", 1)
        serial = engine_for(archive, 2)
        for k in range(2):
            swipe_step(serial, archive, k, gas=1)
        shards, extra = serial.state_payload()
        payload = ({section: {k: a.copy() for k, a in arrays.items()}
                    for section, arrays in shards.items()}, extra)
        for k in (2, 3):
            swipe_step(serial, archive, k, gas=1)
        monkeypatch.setattr(rows, "_CORES", 2)
        engine = engine_for(archive, 2)
        for k in (5, 6):                        # another trajectory
            swipe_step(engine, archive, k, gas=1)
        engine.restore(*payload)
        for k in (2, 3):
            swipe_step(engine, archive, k, gas=1)
        assert len(forks) == 1
        assert_same_engines(serial, engine)

    @pytest.mark.parametrize("how", ["load_state_dict", "rebind"])
    def test_a_split_after_rebound_weights(self, archive, how, monkeypatch,
                                           forks):
        """The worker reads the weights in their shared mapping: weights
        rebound between steps are seated back into it before the split."""
        engines = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            engine = engine_for(archive, 2)
            swipe_step(engine, archive, 0, gas=1)
            rebind(engine, how, seed=5)
            for k in (1, 2):
                swipe_step(engine, archive, k, gas=1)
            engines.append(engine)
        assert len(forks) == 1
        assert_same_engines(*engines)

    def test_stress_more_workers_than_cores(self, archive, monkeypatch,
                                            forks):
        """Three workers and the caller on this box's cores, 30 steps, the
        weights rebound every other: equal to serial throughout."""
        engines = []
        for cores in (1, 4):
            monkeypatch.setattr(rows, "_CORES", cores)
            engine = engine_for(archive, 4)
            for k in range(30):
                swipe_step(engine, archive, k % 4, gas=1)
                rebind(engine, ("load_state_dict", "rebind")[k % 2], seed=k)
            engines.append(engine)
        assert len(forks) == 3
        assert_same_engines(*engines)

    def test_a_killed_worker_is_a_typed_error_then_reforked(
            self, archive, monkeypatch, forks):
        serial, _ = run(archive, 2, 1, 1, monkeypatch)
        monkeypatch.setattr(rows, "_CORES", 2)
        engine = engine_for(archive, 2)
        swipe_step(engine, archive, 0, gas=1)
        pid = rows.WORKERS.pids[0]
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, unreaped
        args = step_args(engine, archive, 1)
        with pytest.raises(ChildProcessError, match="SIGKILL"):
            engine.train_step(*args, gas=1)
        assert rows.WORKERS.pids == []
        assert_reaped([pid])
        engine.train_step(*args, gas=1)        # the same batch, re-forked
        swipe_step(engine, archive, 2, gas=1)
        assert len(forks) == 2
        assert_same_engines(serial, engine)


def rebind(engine, how: str, seed: int) -> None:
    """Other weights for ``engine``'s model, by ``load_state_dict`` or by
    ``p.data = …``."""
    other = Aeris(TINY16, seed=seed)
    if how == "load_state_dict":
        engine.model.load_state_dict(other.state_dict())
    else:
        for p, q in zip(engine.model.parameters(), other.parameters()):
            p.data = q.data * 0.5


class InReplicaOne(SwipeEngine):
    """A SWiPe engine whose loss runs ``effect()`` for replica 1's rows
    (set before the first step: a worker runs the engine it was forked
    with)."""

    def effect(self):
        pass

    def _loss(self, pred, rows):
        if rows.start >= ROWS_PER_REPLICA:
            self.effect()
        return (pred * pred).mean()


def replica_step(archive, effect, engine=None):
    """One one-microbatch step of ``dp × 4`` random rows on ``engine``, a
    dp = 2 :class:`InReplicaOne` engine running ``effect`` (a new one by
    default); the engine."""
    if engine is None:
        engine = engine_for(archive, 2, cls=InReplicaOne)
        engine.effect = effect
    r = np.random.default_rng(0)
    n = engine.topology.dp * ROWS_PER_REPLICA
    shape = (n, TINY16.height, TINY16.width)
    batch = Batch((r.normal(size=shape + (TINY16.channels,)).astype(np.float32),
                   r.uniform(0.2, 1.3, size=n).astype(np.float32),
                   r.normal(size=shape + (TINY16.channels,)).astype(np.float32),
                   r.normal(size=shape + (TINY16.forcing_channels,)
                            ).astype(np.float32)), ())
    engine._run(lambda: batch)
    return engine


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFailures:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_replica_error_is_raised_here(self, archive, cores,
                                            monkeypatch):
        monkeypatch.setattr(rows, "_CORES", cores)

        def fail():
            raise ValueError("replica 1 failed")

        with pytest.raises(ValueError, match="replica 1 failed") as info:
            replica_step(archive, fail)
        if cores == 2 and hasattr(info.value, "add_note"):   # >= 3.11
            assert "forked worker" in "".join(info.value.__notes__)
        assert_no_child_left()

    def test_a_worker_writing_a_weight_raises_here(self, archive,
                                                   monkeypatch):
        """A worker's weights are read-only views of the caller's."""
        monkeypatch.setattr(rows, "_CORES", 2)
        engine = engine_for(archive, 2, cls=InReplicaOne)
        weight = engine.model.parameters()[0]
        before = weight.data.copy()

        def write():
            weight.data[...] = 0.0

        engine.effect = write
        with pytest.raises(ValueError, match="read-only") as info:
            replica_step(archive, None, engine)
        if hasattr(info.value, "add_note"):                   # >= 3.11
            assert "forked worker" in "".join(info.value.__notes__)
        np.testing.assert_array_equal(weight.data, before)
        assert engine.history == []
        assert_no_child_left()

    def test_a_killed_child_is_a_typed_error(self, archive, monkeypatch):
        monkeypatch.setattr(rows, "_CORES", 2)
        parent = os.getpid()

        def die():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match="SIGKILL"):
            replica_step(archive, die)
        assert_no_child_left()

    def test_a_child_warning_is_reissued_here(self, archive, monkeypatch,
                                               forks):
        monkeypatch.setattr(rows, "_CORES", 2)
        with pytest.warns(UserWarning, match="from replica 1"):
            engine = replica_step(archive, lambda: warnings.warn(
                "from replica 1", UserWarning))
        assert len(forks) == 1 and rows.WORKERS.pids == forks

    def test_a_worker_runs_under_the_callers_warning_filters(
            self, archive, monkeypatch, forks):
        """Forked under the default filters, the worker raises its warning
        once the caller's filters make it an error."""
        monkeypatch.setattr(rows, "_CORES", 2)

        def warn():
            warnings.warn("from replica 1", UserWarning)

        with pytest.warns(UserWarning, match="from replica 1"):
            engine = replica_step(archive, warn)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="from replica 1") as info:
                replica_step(archive, warn, engine)
        if hasattr(info.value, "add_note"):                   # >= 3.11
            assert "forked worker" in "".join(info.value.__notes__)
        assert len(forks) == 1
        assert_no_child_left()


#: p2p transfers one replica makes per microbatch: a handoff forward and
#: a gradient back at each stage boundary.
P2P_PER_REPLICA = 2 * (TINY16.pp_stages - 1)

#: Scheduled transients in the caller's replica 0, in replica 1 (a
#: worker's) and in the allreduce at each of three steps, over seeded
#: background rates.
TRANSIENTS = FaultPlan(
    events=tuple(event for step in range(3) for event in (
        Drop(step=step, primitive="p2p", nth=step),
        BitFlip(step=step, primitive="p2p", nth=P2P_PER_REPLICA + step),
        Straggle(step=step, primitive="*", nth=P2P_PER_REPLICA + 1,
                 delay_s=0.02),
        BitFlip(step=step, primitive="allreduce", nth=1))),
    seed=5, p_bitflip=0.05, p_drop=0.05, p_straggle=0.05)


def faulted_run(archive, dp, cores, plan, monkeypatch, steps=3):
    """``steps`` one-microbatch steps on ``cores`` under ``plan``, each
    step's faults dealt as a supervisor deals them; the engine and the
    ``RankFailure`` that ended the run, if one did."""
    monkeypatch.setattr(rows, "_CORES", cores)
    engine = engine_for(archive, dp, FaultInjector(plan))
    try:
        for k in range(steps):
            engine.injector.advance(k)
            swipe_step(engine, archive, k, gas=1)
    except RankFailure as failure:
        return engine, failure
    return engine, None


def assert_same_faults(a, b):
    assert dict(a.injector.injected) == dict(b.injector.injected)
    assert a.injector.rng.bit_generator.state == \
        b.injector.rng.bit_generator.state


class TestFaults:
    """A worker logs its transfers and the caller makes them after the
    join, in rank order: every fault lands where the serial step deals
    it, and every booking is the serial step's."""

    @pytest.mark.parametrize("dp, cores", [(2, 2), (4, 3)])
    def test_transients_forked_equal_serial(self, archive, dp, cores,
                                            monkeypatch, forks):
        serial, _ = faulted_run(archive, dp, 1, TRANSIENTS, monkeypatch)
        assert forks == []
        forked, _ = faulted_run(archive, dp, cores, TRANSIENTS, monkeypatch)
        assert len(forks) == cores - 1
        assert {"flip", "drop", "straggler"} <= set(serial.injector.injected)
        assert_same_engines(serial, forked)
        assert_same_faults(serial, forked)

    @pytest.mark.parametrize("dp, cores, replica", [
        (2, 2, 0), (2, 2, 1), (4, 3, 1)])
    def test_a_fail_stop_raises_as_serial(self, archive, dp, cores, replica,
                                          monkeypatch, forks):
        """A rank of the caller's replica dies, or one of a worker's (at
        dp = 4, before the other worker's transfers are made)."""
        rank = RankTopology(dp=dp, pp=TINY16.pp_stages, wp_grid=(1, 1),
                            sp=1).rank_of(replica, 1, 0, 0)
        plan = FaultPlan(events=(FailStop(rank=rank, step=1),))
        serial, want = faulted_run(archive, dp, 1, plan, monkeypatch)
        forked, got = faulted_run(archive, dp, cores, plan, monkeypatch)
        assert len(forks) == cores - 1
        assert want is not None and str(got) == str(want)
        assert_same_engines(serial, forked)
        assert_same_faults(serial, forked)


class TestStaysSerial:
    """Each of these paths would lose the child's spans, FLOPs or guard
    ordinals, so none of them may fork."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(rows, "_CORES", 2)

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)

    def test_the_spy_is_live(self, archive, no_fork):
        with pytest.raises(AssertionError, match="forked"):
            swipe_step(engine_for(archive, 2), archive, 0, gas=1)

    def test_abft_guard(self, archive, no_fork):
        with abft_guard():
            swipe_step(engine_for(archive, 2), archive, 0, gas=1)

    def test_observed(self, archive, no_fork):
        with obs.observed():
            swipe_step(engine_for(archive, 2), archive, 0, gas=1)

    def test_flop_counting(self, archive, no_fork):
        with count_flops() as counter:
            swipe_step(engine_for(archive, 2), archive, 0, gas=1)
        assert counter.forward > 0
