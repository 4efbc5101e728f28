"""Plan-cache behavior: keying/invalidation, LRU bounds, and the registry."""

import numpy as np
import pytest

from repro.kernels import (
    LRUCache,
    clear_plan_caches,
    plan_cache_stats,
    rope_tables,
    window_plan,
)
from repro.kernels.rope_cache import _ROPE_TABLES
from repro.kernels.window_plans import _WINDOW_PLANS


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


class TestLRUCache:
    def test_hit_returns_same_object(self):
        cache = LRUCache("t-hit", maxsize=4)
        a = cache.get_or_build("k", lambda: object())
        b = cache.get_or_build("k", lambda: object())
        assert a is b
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_lru_bound_and_eviction_order(self):
        cache = LRUCache("t-evict", maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")      # refresh a -> b is now LRU
        cache.get_or_build("c", lambda: "C")      # evicts b
        assert len(cache) == 2
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or "B2")
        assert rebuilt  # evicted entries are rebuilt, not resurrected

    def test_clear_and_reset_stats(self):
        cache = LRUCache("t-clear", maxsize=4)
        cache.get_or_build("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        cache.reset_stats()
        assert cache.stats()["hits"] == 0 == cache.stats()["misses"]


class TestWindowPlanInvalidation:
    def test_same_key_is_cached(self):
        assert window_plan((8, 8), (4, 4)) is window_plan((8, 8), (4, 4))
        assert _WINDOW_PLANS.stats()["hits"] >= 1

    def test_shape_window_shift_each_invalidate(self):
        base = window_plan((8, 8), (4, 4), (0, 0))
        assert window_plan((8, 16), (4, 4), (0, 0)) is not base   # grid
        assert window_plan((8, 8), (2, 2), (0, 0)) is not base    # window
        assert window_plan((8, 8), (4, 4), (2, 2)) is not base    # shift
        assert len(_WINDOW_PLANS) == 4

    def test_plans_are_read_only(self):
        plan = window_plan((8, 8), (4, 4), (2, 2))
        with pytest.raises(ValueError):
            plan.gather[0] = 0
        with pytest.raises(ValueError):
            plan.scatter[0] = 0

    def test_scatter_inverts_gather(self):
        plan = window_plan((8, 12), (4, 4), (2, 2))
        np.testing.assert_array_equal(
            plan.gather[plan.scatter], np.arange(8 * 12))

    def test_lru_eviction_bounds_memory(self):
        for n in range(1, _WINDOW_PLANS.maxsize + 10):
            window_plan((4 * n, 4), (4, 4))
        assert len(_WINDOW_PLANS) == _WINDOW_PLANS.maxsize
        assert _WINDOW_PLANS.stats()["evictions"] >= 9


class TestRopeCacheInvalidation:
    def test_same_key_is_cached(self):
        a = rope_tables((4, 4), 8)
        b = rope_tables((4, 4), 8)
        assert a[0] is b[0] and a[1] is b[1]

    def test_window_and_head_dim_each_invalidate(self):
        cos, _ = rope_tables((4, 4), 8)
        assert rope_tables((4, 8), 8)[0] is not cos            # window
        assert rope_tables((4, 4), 16)[0] is not cos           # head_dim
        assert cos.dtype == np.float32
        assert len(_ROPE_TABLES) == 3


class TestRegistry:
    def test_stats_and_clear_cover_all_caches(self):
        window_plan((8, 8), (4, 4))
        rope_tables((4, 4), 8)
        stats = plan_cache_stats()
        for name in ("window_plans", "rope_tables", "window_shardings"):
            assert name in stats
        assert stats["window_plans"]["size"] == 1
        clear_plan_caches()
        stats = plan_cache_stats()
        assert stats["window_plans"]["size"] == 0
        assert stats["window_plans"]["misses"] == 0  # stats reset too
