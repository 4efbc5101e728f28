"""Replica sizing: a service's worker pool is as large as its config says
(no tuned plan sizes it)."""

from repro.serve import ForecastService


class TestServiceWiring:
    def test_service_without_plan_uses_config(self, serve_world):
        _, forecaster, _, _ = serve_world
        svc = ForecastService(forecaster)
        assert len(svc.pool.workers) == svc.config.n_workers
