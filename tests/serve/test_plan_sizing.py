"""Tuned-plan-driven replica sizing: the serve pool packs as many
replicas as the plan's memory estimate says fit on one node."""

import dataclasses

import pytest

from repro.model import TINY
from repro.obs import observed
from repro.parallel.autotune import plan_for
from repro.perf import AURORA
from repro.serve import ForecastService, ServeWorkerPool, worker


@pytest.fixture(scope="module")
def tiny_plan():
    return plan_for(TINY, AURORA, 32, 8, micro_batches=(1, 2))


def _with_memory(plan, memory_gb):
    chosen = dataclasses.replace(plan.chosen, memory_gb=memory_gb)
    return dataclasses.replace(plan, chosen=chosen)


class TestPoolSizing:
    def test_counts_full_model_parallel_groups(self, tiny_plan,
                                               monkeypatch):
        monkeypatch.setattr(worker, "MAX_PLAN_WORKERS", 64)
        pool = ServeWorkerPool.from_plan(tiny_plan, AURORA)
        ranks = tiny_plan.chosen.world_size // tiny_plan.chosen.dp
        per_replica = tiny_plan.chosen.memory_gb * ranks
        node = AURORA.tiles_per_node * AURORA.tile_memory_gb
        expected = max(1, min(64, int(node // per_replica)))
        assert len(pool.workers) == expected

    def test_clamps_to_max_workers(self, tiny_plan, monkeypatch):
        monkeypatch.setattr(worker, "MAX_PLAN_WORKERS", 2)
        pool = ServeWorkerPool.from_plan(tiny_plan, AURORA)
        assert len(pool.workers) == 2

    def test_memory_hog_still_gets_one_replica(self, tiny_plan):
        hog = _with_memory(tiny_plan, 10 * AURORA.tiles_per_node
                           * AURORA.tile_memory_gb)
        pool = ServeWorkerPool.from_plan(hog, AURORA)
        assert len(pool.workers) == 1

    def test_sizing_is_booked(self, tiny_plan):
        with observed() as (tracer, registry):
            pool = ServeWorkerPool.from_plan(tiny_plan, AURORA)
            assert registry.gauge("serve.plan_workers").value() \
                == len(pool.workers)


class TestServiceWiring:
    def test_service_pool_sized_from_plan(self, serve_world, tiny_plan):
        _, forecaster, _, _ = serve_world
        svc = ForecastService(forecaster, plan=tiny_plan)
        ref = ServeWorkerPool.from_plan(tiny_plan, AURORA)
        assert len(svc.pool.workers) == len(ref.workers)

    def test_service_without_plan_uses_config(self, serve_world):
        _, forecaster, _, _ = serve_world
        svc = ForecastService(forecaster)
        assert len(svc.pool.workers) == svc.config.n_workers
