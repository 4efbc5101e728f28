"""Workspace arena: pooling semantics, budget enforcement, safety refusals."""

import numpy as np
import pytest

from repro.kernels import abft_guard, fused_swiglu_forward
from repro.model import Aeris
from repro.model import aeris as aeris_mod
from repro.nn.attention import dot_product_attention
from repro.resilience import (
    ComputeCorruption,
    ComputeFault,
    FaultInjector,
    FaultPlan,
    inject_compute,
)
from repro.tensor import Tensor, WorkspaceArena, arena, no_grad

from .test_golden import QUICKSTART, model_inputs, packed_attention, unblind


class TestArenaPooling:
    def test_get_release_get_reuses_buffer(self):
        a = WorkspaceArena(max_bytes=1 << 20)
        buf = a.get((8, 8), np.float32)
        a.release(buf)
        again = a.get((8, 8), np.float32)
        assert np.shares_memory(again, buf)
        assert again.shape == (8, 8) and again.dtype == np.float32
        assert again.flags.c_contiguous and again.flags.writeable
        assert a.stats()["hits"] == 1 and a.stats()["misses"] == 1

    def test_smallest_idle_buffer_that_fits_serves(self):
        """Pooling is by capacity in bytes: another shape or dtype of no
        more bytes reuses the memory, and of several idle buffers the
        smallest that fits is taken."""
        a = WorkspaceArena(max_bytes=1 << 20)
        small, large = a.get((8, 8), np.float32), a.get((64, 8), np.float32)
        a.release(large)
        a.release(small)
        as_double = a.get((4, 8), np.float64)       # 256 bytes, like small
        assert np.shares_memory(as_double, small)
        assert as_double.shape == (4, 8) and as_double.dtype == np.float64
        reshaped = a.get((4, 16, 2), np.float32)    # 512: only large fits
        assert np.shares_memory(reshaped, large)
        assert reshaped.shape == (4, 16, 2) and reshaped.nbytes == 512
        assert a.stats()["misses"] == 2 and a.stats()["pooled_bytes"] == 0
        a.release(reshaped)
        assert a.stats()["pooled_bytes"] == large.nbytes       # capacity, not the view

    def test_miss_supersedes_the_largest_idle_buffer(self):
        """Whatever the order of sizes, what stays pooled is one buffer per
        request outstanding at once, each as large as the largest seen."""
        for sizes in ((10, 20, 40, 80), (80, 40, 20, 10), (20, 80, 10, 40)):
            a = WorkspaceArena(max_bytes=1 << 20)
            for n in sizes:
                a.release(a.get((n,), np.float32))
            assert a.stats()["pooled_bytes"] == 80 * 4
            for n in sizes:                          # two outstanding at once
                x, y = a.get((n,), np.float32), a.get((n,), np.float32)
                a.release(x)
                a.release(y)
            assert a.stats()["pooled_bytes"] == 2 * 80 * 4

    def test_budget_drops_smallest_idle_buffers(self):
        a = WorkspaceArena(max_bytes=1000)
        first = a.get((100,), np.float32)   # 400 bytes
        second = a.get((100,), np.float64)  # 800 bytes
        a.release(first)
        a.release(second)                   # 1200 pooled -> first is dropped
        assert a.stats()["pooled_bytes"] == 800
        assert np.shares_memory(a.get((100,), np.float32), second)
        assert a.stats()["pooled_bytes"] == 0

    def test_oversized_request_never_pooled(self):
        a = WorkspaceArena(max_bytes=100)
        big = a.get((1000,), np.float32)
        a.release(big)
        assert a.stats()["pooled_bytes"] == 0

    def test_views_are_refused(self):
        """Only what ``get`` handed out comes back: not a foreign array, not
        a view of one, not a view of a handed-out buffer."""
        a = WorkspaceArena(max_bytes=1 << 20)
        base = np.empty((16,), dtype=np.float32)
        mine = a.get((4, 4), np.float32)
        for other in (base, base[:8], mine[:2], mine.reshape(-1), mine.T,
                      mine.view(np.int32), None):
            a.release(other)
            assert a.stats()["pooled_bytes"] == 0
        a.release(mine)
        assert a.stats()["pooled_bytes"] == mine.nbytes

    def test_clear_and_stats(self):
        a = WorkspaceArena(max_bytes=1 << 20)
        a.release(a.get((4,), np.float32))
        a.clear()
        assert a.stats()["pooled_bytes"] == 0
        a.reset_stats()
        assert a.stats()["bytes_served"] == 0
        assert set(a.stats()) == {"hits", "misses", "bytes_served",
                                  "bytes_allocated", "pooled_bytes",
                                  "max_bytes"}

    def test_rejects_non_positive_free_reuse_of_distinct_gets(self):
        # Two outstanding gets must be distinct memory, whether they miss,
        # hit equal buffers, or hit one that could hold both.
        a = WorkspaceArena(max_bytes=1 << 20)
        for _ in range(2):
            x = a.get((8,), np.float32)
            y = a.get((8,), np.float32)
            assert not np.shares_memory(x, y)
            a.release(x)
            a.release(y)
        a.clear()
        a.release(a.get((64,), np.float32))
        x, y = a.get((8,), np.float32), a.get((8,), np.float32)
        assert not np.shares_memory(x, y)

    def test_shapes_without_elements_and_list_spellings(self):
        a = WorkspaceArena(max_bytes=1 << 20)
        empty = a.get((0, 3), np.float32)
        assert empty.shape == (0, 3)
        a.release(empty)
        scalar = a.get((), np.float64)
        assert scalar.shape == () and scalar.dtype == np.float64
        listed = a.get([2, np.int64(3)], "float32")
        assert listed.shape == (2, 3) and listed.dtype == np.float32


class TestArenaInKernels:
    def test_inference_attention_reuses_scratch(self):
        glob = arena()
        glob.clear()
        glob.reset_stats()
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.normal(size=(2, 4, 16, 8)).astype(np.float32))
                   for _ in range(3))
        with no_grad():
            a = packed_attention(q, k, v)
            b = packed_attention(q, k, v)
        np.testing.assert_array_equal(
            a.numpy(), dot_product_attention(q, k, v).numpy())
        np.testing.assert_array_equal(a.numpy(), b.numpy())
        stats = glob.stats()
        assert stats["hits"] >= 1  # second call reused the scores buffer
        assert stats["bytes_served"] > stats["bytes_allocated"]

    def test_training_attention_does_not_pool_graph_buffers(self):
        """Whatever the taped forward leaves in the pool, a later call
        reusing it must not reach the buffers backward still reads."""
        glob = arena()
        glob.clear()
        rng = np.random.default_rng(1)
        shape = (1, 2, 8, 4)
        data = [rng.normal(size=shape).astype(np.float32) for _ in range(6)]
        grads = {}
        for name, core in (("ref", dot_product_attention),
                           ("fused", packed_attention)):
            q, k, v = (Tensor(a.copy(), requires_grad=True)
                       for a in data[:3])
            out = core(q, k, v)
            with no_grad():     # same shapes: takes every pooled buffer
                packed_attention(*(Tensor(a) for a in data[3:]))
            out.sum().backward()
            grads[name] = (q.grad, k.grad, v.grad)
        for a, b in zip(grads["ref"], grads["fused"]):
            np.testing.assert_array_equal(a, b)

    def test_back_to_back_calls_do_not_alias(self):
        rng = np.random.default_rng(2)
        first, second = ([Tensor(rng.normal(size=(2, 4, 16, 8)).astype(
            np.float32)) for _ in range(3)] for _ in range(2))
        with no_grad():
            a = packed_attention(*first)
            kept = a.numpy().copy()
            b = packed_attention(*second)
        assert not np.shares_memory(a.numpy(), b.numpy())
        np.testing.assert_array_equal(a.numpy(), kept)
        assert not np.array_equal(a.numpy(), b.numpy())

    @pytest.mark.parametrize("nth", [0, 1], ids=["scores", "out"])
    def test_corruption_mid_kernel_keeps_scratch_pooled(self, nth):
        """An ABFT ``ComputeCorruption`` raised inside the kernel must not
        drop that call's buffers from the pool (released in ``finally``)."""
        glob = arena()
        glob.clear()
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(2, 4, 16, 8)).astype(np.float32))
                   for _ in range(3))
        with no_grad():
            packed_attention(q, k, v)
            pooled = glob.stats()["pooled_bytes"]
            assert pooled > 0
            fault = FaultInjector(FaultPlan(events=(
                ComputeFault(step=0, site="gemm", nth=nth),)))
            fault.advance(0)
            with abft_guard(), inject_compute(fault), \
                    pytest.raises(ComputeCorruption):
                packed_attention(q, k, v)
            assert glob.stats()["pooled_bytes"] == pooled
            glob.reset_stats()
            packed_attention(q, k, v)
        assert glob.stats()["misses"] == 0

    @pytest.mark.parametrize("nth", [0, 1, 2], ids=["gate", "up", "down"])
    def test_corruption_mid_swiglu_keeps_scratch_pooled(self, nth):
        """Same for the SwiGLU kernel's hidden-width buffers, whichever of
        its three guarded GEMMs the corruption is caught in."""
        glob = arena()
        glob.clear()
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 16, 8)).astype(np.float32))
        w_gate, w_up = (rng.normal(size=(8, 24)).astype(np.float32)
                        for _ in range(2))
        w_down = rng.normal(size=(24, 8)).astype(np.float32)
        fused_swiglu_forward(x, w_gate, w_up, w_down)
        pooled = glob.stats()["pooled_bytes"]
        assert pooled > 0
        fault = FaultInjector(FaultPlan(events=(
            ComputeFault(step=0, site="gemm", nth=nth),)))
        fault.advance(0)
        with abft_guard(), inject_compute(fault), \
                pytest.raises(ComputeCorruption, match="swiglu"):
            fused_swiglu_forward(x, w_gate, w_up, w_down)
        assert glob.stats()["pooled_bytes"] == pooled
        glob.reset_stats()
        fused_swiglu_forward(x, w_gate, w_up, w_down)
        assert glob.stats()["misses"] == 0

    def test_pooled_bytes_steady_and_budgeted_at_16_rows(self, monkeypatch):
        """The RSS guard: rotary, K^T and max scratch all go through one
        256 KB block, and at most two requests are ever outstanding (score
        matrix + block, or the two SwiGLU hidden buffers), so what a 16-row
        forward of the quickstart model leaves pooled is two 2 MB buffers —
        settled after the first forward.  One shard: the row-split forward's
        two arenas hold half each
        (``test_row_parallel.py::TestMemoryRule``)."""
        monkeypatch.setattr(aeris_mod, "_CORES", 1)
        model = Aeris(QUICKSTART, seed=0)
        rng = np.random.default_rng(4)
        args = (Tensor(rng.normal(size=(16, 16, 32, 9)).astype(np.float32)),
                Tensor(np.full(16, 0.5, np.float32)),
                Tensor(rng.normal(size=(16, 16, 32, 9)).astype(np.float32)),
                Tensor(rng.normal(size=(16, 16, 32, 3)).astype(np.float32)))
        glob = arena()
        glob.clear()
        pooled = []
        with no_grad():
            for _ in range(10):
                model(*args)
                pooled.append(glob.stats()["pooled_bytes"])
        assert len(set(pooled[1:])) == 1
        assert pooled[-1] == 4 * 2 ** 20

    def test_pooled_bytes_over_serving_batch_shapes(self):
        """Pooled scratch is served by capacity, so a service that sees
        many batch sizes pays for the largest only: whatever the order,
        no more stays pooled than 18 rows alone leave (a score matrix's
        worth twice over — the two SwiGLU hidden buffers are that size, and
        the 256 KB block fits in either).  Keyed by shape, this sequence
        left 21 889 024 bytes."""
        model = Aeris(QUICKSTART, seed=0)
        glob = arena()

        def pooled_after(sequence):
            glob.clear()
            with no_grad():
                for rows in sequence:
                    model(*model_inputs(QUICKSTART, rows))
            return glob.stats()["pooled_bytes"]

        alone = pooled_after((18,))
        assert alone <= 7.5 * 2 ** 20
        for sequence in ((1, 2, 4, 14, 16, 18), (18, 16, 14, 4, 2, 1),
                         (1, 2, 4, 14, 18, 16), (16, 2, 18, 1, 14, 4)):
            assert pooled_after(sequence) <= alone


class TestForwardAliasing:
    """The memory rule of the tape-free forward: inputs and parameters are
    only read, and what a forward returns is nobody else's memory."""

    def test_inputs_and_parameters_unchanged_by_a_forward(self):
        model = unblind(Aeris(QUICKSTART, seed=0))
        args = model_inputs(QUICKSTART, 2)
        inputs = [a.data.copy() for a in args]
        params = [p.data.copy() for p in model.parameters()]
        for a in args:
            a.data.setflags(write=False)    # a write would raise, too
        with no_grad():
            model(*args)
        for a, kept in zip(args, inputs):
            np.testing.assert_array_equal(a.data, kept)
        for p, kept in zip(model.parameters(), params):
            np.testing.assert_array_equal(p.data, kept)

    def test_consecutive_forwards_return_disjoint_memory(self):
        model = unblind(Aeris(QUICKSTART, seed=0))
        with no_grad():
            first = model(*model_inputs(QUICKSTART, 4, seed=1)).numpy()
            kept = first.copy()
            second = model(*model_inputs(QUICKSTART, 4, seed=2)).numpy()
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first, second)
        # ... and not the arena's either: nothing pooled overlaps a result.
        idle = arena()._idle
        assert idle
        for _, buf in idle:
            assert not np.shares_memory(buf.base, first)
            assert not np.shares_memory(buf.base, second)

    def test_block_reads_its_residual_input_only(self):
        """A caller may keep the residual stream it handed to a block (the
        serve cache does): the gate-residual kernel builds the sum in the
        branch's memory, never in ``x``."""
        model = unblind(Aeris(QUICKSTART, seed=0))
        block = model.layers[0].blocks[1]
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 16, 32, 32)).astype(np.float32))
        t_emb = Tensor(rng.normal(size=(2, 32)).astype(np.float32))
        kept = x.data.copy()
        with no_grad():
            out = block(x, t_emb)
        np.testing.assert_array_equal(x.data, kept)
        assert not np.shares_memory(out.numpy(), x.data)
