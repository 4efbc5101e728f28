"""Stress tests of the state the row-shard workers share with the calling
thread: the workspace arena (one per thread) and the plan caches (one lock
each).  More threads than cores, a switch interval of a microsecond so the
interpreter hands over between almost any two bytecodes, and every join
bounded in time."""

import sys
import threading

import numpy as np
import pytest

from repro.kernels import fused_swiglu_forward, plan_cache
from repro.kernels.plan_cache import LRUCache
from repro.model import Aeris
from repro.model import aeris as aeris_mod
from repro.tensor import WorkspaceArena, arena, no_grad

from .test_golden import QUICKSTART, model_inputs, unblind

THREADS = 8
JOIN_TIMEOUT_S = 60.0


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def run_threads(target, n=THREADS):
    """Run ``target(i)`` on ``n`` threads started together; re-raise the
    first error."""
    errors = []
    start = threading.Barrier(n)

    def body(i):
        try:
            start.wait(JOIN_TIMEOUT_S)
            target(i)
        except BaseException as exc:       # handed to the test thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "stress run timed out"
    if errors:
        raise errors[0]


class TestArena:
    def test_no_buffer_held_by_two_threads_at_once(self, fast_switching,
                                                   monkeypatch):
        """Every buffer the arena hands out, through the kernels or
        directly, is owned by one thread from ``get`` to ``release``, and
        each thread's arena counted every request it served."""
        owner: dict[int, int] = {}
        served: dict[int, int] = {}
        lock = threading.Lock()
        clashes = []
        get, release = WorkspaceArena.get, WorkspaceArena.release

        def address(buf):
            base = buf.base if buf.base is not None else buf
            return base.__array_interface__["data"][0]

        def owned_get(self, shape, dtype=np.float32):
            buf = get(self, shape, dtype)
            me = threading.get_ident()
            with lock:
                served[id(self)] = served.get(id(self), 0) + 1
                held = owner.setdefault(address(buf), me)
                if held != me:
                    clashes.append((held, me))
            return buf

        def owned_release(self, buf):
            with lock:
                owner.pop(address(buf), None)
            release(self, buf)

        monkeypatch.setattr(WorkspaceArena, "get", owned_get)
        monkeypatch.setattr(WorkspaceArena, "release", owned_release)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 16, 8)).astype(np.float32)
        w_gate, w_up = (rng.normal(size=(8, 24)).astype(np.float32)
                        for _ in range(2))
        w_down = rng.normal(size=(24, 8)).astype(np.float32)
        want = fused_swiglu_forward(x, w_gate, w_up, w_down)
        arenas = [None] * THREADS

        def work(i):
            arenas[i] = arena()
            for n in range(40):
                size = 1 + (n * 7 + i) % 300
                bufs = [arena().get((size,)) for _ in range(3)]
                got = fused_swiglu_forward(x, w_gate, w_up, w_down)
                np.testing.assert_array_equal(got, want)
                for buf in bufs:
                    arena().release(buf)

        run_threads(work)
        assert not clashes
        assert len(set(map(id, arenas))) == THREADS
        assert arena() not in arenas        # the test thread's is its own
        for ws in arenas:
            assert ws.hits + ws.misses == served[id(ws)] > 0


class TestPlanCache:
    def test_hits_plus_misses_equal_lookups(self, fast_switching,
                                            monkeypatch):
        monkeypatch.setattr(plan_cache, "_REGISTRY", {})
        cache = LRUCache("stress", maxsize=4)
        lookups = 5000

        def work(i):
            for n in range(lookups):
                key = (n * 5 + i) % 7       # more keys than slots: evictions
                assert cache.get_or_build(key, lambda: key * key) == key * key

        run_threads(work)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == THREADS * lookups
        assert stats["misses"] - stats["evictions"] == len(cache) <= 4


class TestSplitForwards:
    def test_concurrent_split_forwards_stay_exact(self, fast_switching,
                                                  monkeypatch):
        """Several callers each splitting their forward over the shared
        pool: every result is the serial one."""
        model = unblind(Aeris(QUICKSTART, seed=0))
        args = model_inputs(QUICKSTART, 8)
        with no_grad():
            monkeypatch.setattr(aeris_mod, "_CORES", 1)
            want = model(*args).numpy()
            monkeypatch.setattr(aeris_mod, "_CORES", 2)

            def work(i):
                for _ in range(2):
                    np.testing.assert_array_equal(model(*args).numpy(), want)

            run_threads(work, n=4)
