"""Content-addressed cache: exactness, byte budget, invalidation."""

import numpy as np
import pytest

from repro.diffusion import SolverConfig
from repro.serve import (ForecastCache, array_digest, forecast_key,
                         solver_digest, weights_digest)

RNG = np.random.default_rng(0)


def make_state(shape=(4, 8, 3), seed=None):
    rng = RNG if seed is None else np.random.default_rng(seed)
    return rng.normal(size=shape).astype(np.float32)


def rng_state():
    return np.random.default_rng(7).bit_generator.state


class TestDigests:
    def test_array_digest_binds_content_dtype_and_shape(self):
        a = make_state(seed=1)
        assert array_digest(a) == array_digest(a.copy())
        b = a.copy()
        b[0, 0, 0] += 1.0
        assert array_digest(a) != array_digest(b)
        assert array_digest(a) != array_digest(a.astype(np.float64))
        assert array_digest(a) != array_digest(a.reshape(8, 4, 3))

    def test_weights_digest_changes_with_any_parameter(self, serve_world):
        _, forecaster, _, _ = serve_world
        model = forecaster.model
        before = weights_digest(model)
        assert before == weights_digest(model)  # stable
        _, param = next(iter(model.named_parameters()))
        original = param.data.copy()
        param.data[...] = original + 1e-3
        try:
            assert weights_digest(model) != before
        finally:
            param.data[...] = original
        assert weights_digest(model) == before

    def test_solver_digest_separates_tiers(self):
        assert solver_digest(None) != solver_digest(SolverConfig())
        assert solver_digest(SolverConfig(n_steps=10)) \
            != solver_digest(SolverConfig(n_steps=20))
        assert solver_digest(SolverConfig(churn=0.0)) \
            != solver_digest(SolverConfig(churn=0.3))

    def test_forecast_key_binds_every_coordinate(self):
        base = dict(weights="w", init="i", member_seed=0, solver="s",
                    start_index=0, lead=1)
        key = forecast_key(**base)
        for change in ({"weights": "w2"}, {"init": "i2"},
                       {"member_seed": 1000}, {"solver": "s2"},
                       {"start_index": 4}, {"lead": 2}):
            assert forecast_key(**{**base, **change}) != key


class TestForecastCache:
    def test_roundtrip_is_bit_identical_and_isolated(self):
        cache = ForecastCache(max_bytes=1 << 20)
        state = make_state(seed=2)
        cache.put("k", state, rng_state())
        state[0, 0, 0] = 999.0  # caller mutation must not leak in
        entry = cache.get("k")
        assert entry is not None
        fresh = make_state(seed=2)
        assert np.array_equal(entry.state, fresh)
        assert entry.state.dtype == fresh.dtype

    def test_a_read_only_state_is_adopted_and_stays_read_only(self):
        """A step's output rows, marked read-only, are cached as they are:
        no copy, and a write to the cached state raises."""
        cache = ForecastCache(max_bytes=1 << 20)
        rows = np.stack([make_state(seed=2), make_state(seed=3)])
        rows.flags.writeable = False
        cache.put("k", rows[1], rng_state())
        entry = cache.get("k")
        assert np.shares_memory(entry.state, rows)
        with pytest.raises(ValueError, match="read-only"):
            entry.state[0, 0, 0] = 999.0
        np.testing.assert_array_equal(entry.state, make_state(seed=3))

    def test_miss_counts(self):
        cache = ForecastCache(max_bytes=1 << 20)
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hit_rate"] == 0.0

    def test_eviction_respects_byte_budget(self):
        state = make_state()  # 4*8*3*4 = 384 B
        cache = ForecastCache(max_bytes=2 * state.nbytes)
        for i in range(5):
            assert cache.put(f"k{i}", state + i, rng_state())
            assert cache.current_bytes <= cache.max_bytes
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 3
        assert "k0" not in cache and "k4" in cache

    def test_lru_order_refreshed_by_get(self):
        state = make_state()
        cache = ForecastCache(max_bytes=2 * state.nbytes)
        cache.put("a", state, rng_state())
        cache.put("b", state, rng_state())
        cache.get("a")  # a becomes most recent
        cache.put("c", state, rng_state())
        assert "a" in cache and "b" not in cache

    def test_oversize_entry_refused(self):
        state = make_state()
        cache = ForecastCache(max_bytes=state.nbytes - 1)
        assert not cache.put("k", state, rng_state())
        assert len(cache) == 0 and cache.stats()["oversize"] == 1

    def test_refresh_does_not_double_count_bytes(self):
        state = make_state()
        cache = ForecastCache(max_bytes=1 << 20)
        cache.put("k", state, rng_state())
        cache.put("k", state + 1, rng_state())
        assert cache.current_bytes == state.nbytes
        assert np.array_equal(cache.get("k").state, state + 1)

    def test_weights_change_invalidates_addressing(self):
        """Retraining yields a new weights digest, whose keys miss the old
        entries — stale forecasts are unreachable without any flush."""
        cache = ForecastCache(max_bytes=1 << 20)
        state = make_state(seed=3)
        old = forecast_key("digest-old", "init", 0, "solver", 0, 1)
        cache.put(old, state, rng_state())
        new = forecast_key("digest-new", "init", 0, "solver", 0, 1)
        assert cache.get(new) is None
        assert cache.get(old) is not None
