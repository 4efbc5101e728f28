"""Row invariance: a forward's rows do not depend on how many rows the call
has.  Rows ``lo:hi`` of an n-row tape-free forward equal a forward of rows
``lo:hi`` bit for bit — what keeps member groups, DP groups, row splits and
a no-grad forward's own row groups on kept worker processes exact
(:mod:`repro.rows`) — and the forward keeps its other observables: FLOP
totals, the guarded-GEMM sequence, the memory rule.  A no-grad forward of
``_SPLIT_ROWS`` rows or more splits on a multi-core box (the model the split's owner); each case
sets ``rows._CORES``, so it runs the same on a 1-core box."""

import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs, rows
from repro.kernels import abft, abft_guard
from repro.model import Aeris
from repro.model.aeris import _SPLIT_ROWS
from repro.resilience import (ComputeFault, FaultInjector, FaultPlan,
                              inject_compute)
from repro.scoped import scoped
from repro.tensor import Tensor, arena, autocast_bf16, count_flops, no_grad
from tests.switches import maybe

from ..kernels.test_golden import (BLOCK_GUARD_LABELS, QUICKSTART,
                                   model_inputs, unblind)
from ..parallel.test_forked_replicas import forks  # noqa: F401


@pytest.fixture(scope="module")
def model():
    return unblind(Aeris(QUICKSTART, seed=0))


def forward(model, args, cores, monkeypatch):
    monkeypatch.setattr(rows, "_CORES", cores)
    with no_grad():
        return model(*args).numpy()


def row_slice(args, lo, hi):
    """Rows ``lo:hi`` of a forward's inputs (``t`` whole when it is one
    time for every row)."""
    x_t, t, condition, forcings = args
    return (Tensor(x_t.data[lo:hi]),
            t if len(t.data) == 1 else Tensor(t.data[lo:hi]),
            Tensor(condition.data[lo:hi]), Tensor(forcings.data[lo:hi]))


def groups(n, g):
    """The row groups a split of ``n`` rows over ``g`` processes runs
    (:func:`repro.rows._fork_bounds`)."""
    return [(n * i // g, n * (i + 1) // g) for i in range(g)]


class TestExactness:
    @pytest.mark.parametrize("n", [8, 9, 16, 17, 18])
    @pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
    @pytest.mark.parametrize("per_row_t", [True, False],
                             ids=["t_per_row", "t_len1"])
    def test_split_equals_one_shard(self, model, n, bf16, per_row_t,
                                    monkeypatch):
        args = list(model_inputs(QUICKSTART, n))
        if not per_row_t:
            args[1] = Tensor(np.array([0.7], np.float32))
        with maybe(autocast_bf16, bf16):
            whole = forward(model, args, 2, monkeypatch)
            for lo, hi in groups(n, 2) + groups(n, 3):
                np.testing.assert_array_equal(
                    forward(model, row_slice(args, lo, hi), 2, monkeypatch),
                    whole[lo:hi])

    def test_flop_totals_equal(self, model, monkeypatch):
        """A 16-row forward's FLOPs, booked into every active counter, are
        the sum of its row groups' forwards'."""
        args = model_inputs(QUICKSTART, 16)
        with count_flops() as outer, count_flops() as inner:
            forward(model, args, 2, monkeypatch)
        assert outer.forward == inner.forward > 0 and outer.backward == 0
        for g in (2, 3):
            parts = 0
            for lo, hi in groups(16, g):
                with count_flops() as counter:
                    forward(model, row_slice(args, lo, hi), 2, monkeypatch)
                parts += counter.forward
            assert parts == outer.forward


class TestGuardContract:
    def test_abft_armed_forward_is_one_shard(self, model, monkeypatch):
        """Every guarded GEMM is checked in the forward's order, on the
        calling thread."""
        labels, threads = [], set()
        verify = abft._verify_gemm

        def recording(a, b, c, label):
            labels.append(label)
            threads.add(threading.get_ident())
            return verify(a, b, c, label)

        monkeypatch.setattr(abft, "_verify_gemm", recording)
        args = model_inputs(QUICKSTART, 16)
        serial = forward(model, args, 1, monkeypatch)
        with abft_guard():
            guarded = forward(model, args, 2, monkeypatch)
        np.testing.assert_array_equal(guarded, serial)
        assert labels == BLOCK_GUARD_LABELS * QUICKSTART.n_blocks
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("nth", [0, 7, 19])
    def test_compute_fault_hits_the_parents_gemm(self, model, nth,
                                                 monkeypatch):
        """Undefended, a seeded fault corrupts the output, and the same
        GEMM, so the same bits, whatever the core count."""
        args = model_inputs(QUICKSTART, 16)

        def faulted(cores):
            injector = FaultInjector(FaultPlan(events=(
                ComputeFault(step=0, site="gemm", nth=nth),), seed=3))
            injector.advance(0)
            with inject_compute(injector), np.errstate(all="ignore"):
                return forward(model, args, cores, monkeypatch)

        one = faulted(1)
        assert not np.array_equal(one, forward(model, args, 1, monkeypatch))
        np.testing.assert_array_equal(faulted(2), one)


class TestMemoryRule:
    def test_inputs_unchanged_and_result_owns_its_memory(self, model,
                                                         monkeypatch):
        args = model_inputs(QUICKSTART, 16, seed=5)
        kept = [a.data.copy() for a in args]
        for a in args:
            a.data.setflags(write=False)    # a write would raise, too
        embed = Aeris.embed_stage

        def read_only_embed(self, *inputs):
            h = embed(self, *inputs)
            h.data.setflags(write=False)    # the layers only read it
            return h

        monkeypatch.setattr(Aeris, "embed_stage", read_only_embed)
        first = forward(model, args, 2, monkeypatch)
        again = first.copy()
        second = forward(model, model_inputs(QUICKSTART, 16, seed=6), 2,
                         monkeypatch)
        for a, k in zip(args, kept):
            np.testing.assert_array_equal(a.data, k)
        np.testing.assert_array_equal(first, again)
        assert not np.shares_memory(first, second)
        assert arena()._idle
        for _, buf in arena()._idle:
            assert not np.shares_memory(buf.base, first)
            assert not np.shares_memory(buf.base, second)


class TestForwardSplit:
    """A no-grad forward that no outer split covers runs its rows in
    groups, this process the first and the kept worker the second."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 18])
    @pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
    @pytest.mark.parametrize("per_row_t", [True, False],
                             ids=["t_per_row", "t_len1"])
    def test_split_equals_one_core(self, model, n, bf16, per_row_t,
                                   monkeypatch, forks):
        args = list(model_inputs(QUICKSTART, n))
        if not per_row_t:
            args[1] = Tensor(np.array([0.7], np.float32))
        with maybe(autocast_bf16, bf16):
            whole = forward(model, args, 1, monkeypatch)
            split = forward(model, args, 2, monkeypatch)
        assert split.dtype == whole.dtype
        np.testing.assert_array_equal(split, whole)
        assert len(forks) == (n >= _SPLIT_ROWS)

    def test_forks_once_per_model(self, monkeypatch, forks):
        """A new model's first split forks; its next forwards, and the
        first model's again, do not; one under ``_SPLIT_ROWS`` rows runs
        whole and forks nothing."""
        first, second = Aeris(QUICKSTART, seed=1), Aeris(QUICKSTART, seed=2)
        for m, n in ((first, _SPLIT_ROWS - 1), (first, 9), (first, 16),
                     (second, 8), (second, _SPLIT_ROWS - 1), (second, 18),
                     (first, 8)):
            forward(m, model_inputs(QUICKSTART, n), 2, monkeypatch)
        assert len(forks) == 2 and rows.WORKERS.pids == forks[1:]

    def test_a_forward_is_one_call_of_forward(self, model, monkeypatch):
        """The caller's group does not re-enter ``Aeris.forward`` (which
        the benchmark's probes count)."""
        calls = []
        original = Aeris.forward

        def spy(self, x_t, *args):
            calls.append(len(x_t.data))
            return original(self, x_t, *args)

        monkeypatch.setattr(Aeris, "forward", spy)
        forward(model, model_inputs(QUICKSTART, 8), 2, monkeypatch)
        assert calls == [8]

    def test_objects_per_forward_unchanged_at_one_core(self, model,
                                                       monkeypatch):
        """The benchmark's ``tensor.objects_per_forward``: 91 ``Tensor``
        objects per forward, its four inputs counted, whatever its rows,
        when it runs whole."""
        created = []
        original = Tensor.__init__

        def counting(self, *a, **k):
            created.append(None)
            original(self, *a, **k)

        monkeypatch.setattr(Tensor, "__init__", counting)
        counts = []
        for n in (1, 4):
            created.clear()
            forward(model, model_inputs(QUICKSTART, n), 1, monkeypatch)
            counts.append(len(created))
        assert counts == [91, 91]


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(rows, "_CORES", 2)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


@contextmanager
def foreign_thread():
    """A block while a thread other than the caller runs."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="foreign")
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


class TestStaysWhole:
    """Each of these would lose a worker's spans, FLOPs or guard ordinals,
    or fork under a lock another thread holds, or nest a split: the
    forward runs whole here."""

    def test_the_spy_is_live(self, model, no_fork):
        with pytest.raises(AssertionError, match="forked"), no_grad():
            model(*model_inputs(QUICKSTART, 8))

    @pytest.mark.parametrize("block", [
        obs.observed, count_flops, abft_guard, foreign_thread,
        lambda: scoped(rows._IN_SHARD, True)],
        ids=["obs", "flops", "abft", "thread", "member_group"])
    def test_in_one_process(self, model, block, no_fork, monkeypatch):
        args = model_inputs(QUICKSTART, 8)
        monkeypatch.setattr(rows, "_CORES", 1)
        with no_grad():
            want = model(*args).numpy()
        monkeypatch.setattr(rows, "_CORES", 2)
        with block(), no_grad():
            got = model(*args).numpy()
        np.testing.assert_array_equal(got, want)

    def test_a_taped_forward(self, model, no_fork):
        model(*model_inputs(QUICKSTART, 8))
