"""Row-parallel inference: a tape-free forward of enough rows runs its Swin
layers as row shards at once, and every observable of the serial path —
output bits, FLOP totals, the guarded-GEMM sequence, the memory rule —
survives the split.  Each case forces the core count both ways by
monkeypatching ``aeris._CORES``, so it runs the same on a 1-core box."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.kernels import abft, abft_guard
from repro.model import Aeris
from repro.model import aeris as aeris_mod
from repro.resilience import (ComputeFault, FaultInjector, FaultPlan,
                              inject_compute)
from repro.tensor import Tensor, arena, autocast_bf16, count_flops, no_grad

from ..kernels.test_golden import (BLOCK_GUARD_LABELS, QUICKSTART,
                                   model_inputs, unblind)


@pytest.fixture(scope="module")
def model():
    return unblind(Aeris(QUICKSTART, seed=0))


@pytest.fixture
def one_worker(monkeypatch):
    """A pool of its own with one worker, so every forward's second shard
    runs on the same thread."""
    monkeypatch.setattr(aeris_mod, "_POOL", None)
    monkeypatch.setattr(aeris_mod, "_CORES", 2)
    yield
    if aeris_mod._POOL is not None:
        aeris_mod._POOL.shutdown(wait=True)


def forward(model, args, cores, monkeypatch):
    monkeypatch.setattr(aeris_mod, "_CORES", cores)
    with no_grad():
        return model(*args).numpy()


class TestSelection:
    @pytest.mark.parametrize("cores, rows, bounds", [
        (2, 8, [0, 4, 8]), (2, 9, [0, 4, 9]), (2, 16, [0, 8, 16]),
        (2, 7, [0, 7]), (2, 4, [0, 4]), (2, 1, [0, 1]),
        (3, 18, [0, 6, 12, 18]), (3, 17, [0, 5, 11, 17]), (3, 11, [0, 5, 11]),
        (1, 64, [0, 64])])
    def test_shards_by_rows_and_cores(self, cores, rows, bounds,
                                      monkeypatch):
        monkeypatch.setattr(aeris_mod, "_CORES", cores)
        with no_grad():
            assert aeris_mod._row_bounds(rows) == bounds

    def test_a_tape_or_a_live_guard_keeps_one_shard(self, monkeypatch):
        monkeypatch.setattr(aeris_mod, "_CORES", 2)
        assert aeris_mod._row_bounds(16) == [0, 16]        # grad enabled
        injector = FaultInjector(FaultPlan(events=()))
        with no_grad():
            assert aeris_mod._row_bounds(16) == [0, 8, 16]
            with abft_guard():
                assert aeris_mod._row_bounds(16) == [0, 16]
            with inject_compute(injector):
                assert aeris_mod._row_bounds(16) == [0, 16]


class TestExactness:
    @pytest.mark.parametrize("rows", [8, 9, 16, 17, 18])
    @pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
    @pytest.mark.parametrize("per_row_t", [True, False],
                             ids=["t_per_row", "t_len1"])
    def test_split_equals_one_shard(self, model, rows, bf16, per_row_t,
                                    monkeypatch):
        args = list(model_inputs(QUICKSTART, rows))
        if not per_row_t:
            args[1] = Tensor(np.array([0.7], np.float32))
        with autocast_bf16(bf16):
            serial = forward(model, args, 1, monkeypatch)
            split = forward(model, args, 2, monkeypatch)
            three = forward(model, args, 3, monkeypatch)
        np.testing.assert_array_equal(split, serial)
        np.testing.assert_array_equal(three, serial)

    def test_flop_totals_equal(self, model, monkeypatch):
        args = model_inputs(QUICKSTART, 16)
        totals = []
        for cores in (1, 2, 3):
            with count_flops() as outer, count_flops() as inner:
                forward(model, args, cores, monkeypatch)
            totals.append((outer.forward, inner.forward, outer.backward))
        assert totals[0][0] > 0 and totals[0][2] == 0
        assert totals[0] == totals[1] == totals[2]
        assert totals[0][0] == totals[0][1]


class TestGuardContract:
    def test_abft_armed_forward_is_one_shard(self, model, monkeypatch):
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
        """Undefended, a seeded fault corrupts the output: the split-capable
        forward must corrupt the same GEMM, so the same bits."""
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


class TestFailure:
    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_raised_after_every_shard_joined(self, model, failing,
                                                   monkeypatch):
        main = threading.get_ident()
        finished = []
        layer = model.layers[0]
        original = layer.forward

        def flaky(h, t_emb):
            in_caller = threading.get_ident() == main
            if in_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} shard failed")
            time.sleep(0.2)             # the healthy shard finishes last
            out = original(h, t_emb)
            finished.append(h.shape[0])
            return out

        args = model_inputs(QUICKSTART, 16)
        serial = forward(model, args, 1, monkeypatch)
        object.__setattr__(layer, "forward", flaky)
        try:
            with pytest.raises(RuntimeError, match=f"{failing} shard"):
                forward(model, args, 2, monkeypatch)
            assert sum(finished) == 8   # the healthy shard's rows, all
        finally:
            object.__delattr__(layer, "forward")
        np.testing.assert_array_equal(forward(model, args, 2, monkeypatch),
                                      serial)


def _split_forward_in_child(want):
    """Exit 0 iff a split forward in this (forked) process equals ``want``."""
    aeris_mod._CORES = 2
    model = unblind(Aeris(QUICKSTART, seed=0))
    with no_grad():
        got = model(*model_inputs(QUICKSTART, 8)).numpy()
    os._exit(0 if np.array_equal(got, want) else 1)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"),
                    reason="no fork on this platform")
def test_a_forked_child_starts_its_own_pool(model, monkeypatch):
    want = forward(model, model_inputs(QUICKSTART, 8), 1, monkeypatch)
    forward(model, model_inputs(QUICKSTART, 8), 2, monkeypatch)
    assert aeris_mod._POOL is not None      # the parent's workers are up
    child = multiprocessing.get_context("fork").Process(
        target=_split_forward_in_child, args=(want,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the split forward in the forked child hung")
    assert child.exitcode == 0


class TestMemoryRule:
    def test_inputs_unchanged_and_result_owns_its_memory(self, model,
                                                         one_worker,
                                                         monkeypatch):
        args = model_inputs(QUICKSTART, 16, seed=5)
        kept = [a.data.copy() for a in args]
        for a in args:
            a.data.setflags(write=False)    # a write would raise, too
        embed = Aeris.embed_stage

        def read_only_embed(self, *inputs):
            h = embed(self, *inputs)
            h.data.setflags(write=False)    # shards only read their views
            return h

        monkeypatch.setattr(Aeris, "embed_stage", read_only_embed)
        arenas = {}                         # the arena of every shard
        last = model.layers[-1]
        original = last.forward

        def recording(h, t_emb):
            arenas[threading.get_ident()] = arena()
            return original(h, t_emb)

        object.__setattr__(last, "forward", recording)
        try:
            first = forward(model, args, 2, monkeypatch)
            again = first.copy()
            second = forward(model, model_inputs(QUICKSTART, 16, seed=6), 2,
                             monkeypatch)
        finally:
            object.__delattr__(last, "forward")
        for a, k in zip(args, kept):
            np.testing.assert_array_equal(a.data, k)
        np.testing.assert_array_equal(first, again)
        assert not np.shares_memory(first, second)
        assert len(arenas) == 2 and len(set(map(id, arenas.values()))) == 2
        assert arenas[threading.get_ident()] is arena()
        for ws in arenas.values():
            assert ws._idle
            for _, buf in ws._idle:
                assert not np.shares_memory(buf.base, first)
                assert not np.shares_memory(buf.base, second)

    def test_shard_arenas_pool_the_serial_bytes_between_them(self,
                                                             one_worker,
                                                             monkeypatch):
        """What a 16-row forward leaves pooled on one shard (two 2 MB
        buffers, ``test_workspace.py``): the caller's 8 rows leave half of
        it, the worker's 4-row pieces a quarter, settled after the first
        forward."""
        model = Aeris(QUICKSTART, seed=0)
        args = model_inputs(QUICKSTART, 16, seed=4)
        arenas = {}
        last = model.layers[-1]
        original = last.forward

        def recording(h, t_emb):
            arenas[threading.get_ident()] = arena()
            return original(h, t_emb)

        object.__setattr__(last, "forward", recording)
        pooled = []
        for _ in range(6):
            forward(model, args, 2, monkeypatch)
            if len(pooled) == 0:
                for ws in arenas.values():
                    ws.clear()
            pooled.append(sorted(ws.stats()["pooled_bytes"]
                                 for ws in arenas.values()))
        assert len(arenas) == 2
        assert all(p == pooled[1] for p in pooled[1:])
        assert pooled[-1] == [2 ** 20, 2 * 2 ** 20]
