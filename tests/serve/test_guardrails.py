"""Physical forecast guardrails: validator semantics, quarantine +
re-dispatch on a different worker, bounded re-runs, the undefended
baseline, and sdc_check reconciliation of poisoned forecasts."""

import numpy as np
import pytest

from repro.obs import TraceReport
from repro.resilience import (ComputeFault, FaultInjector, FaultPlan,
                              sdc_check)
from repro.serve import ForecastValidator, ServiceConfig, service
from tests.serve.test_service import make_service, request, serve


def _validator(serve_world):
    archive, _, _, _ = serve_world
    return ForecastValidator.from_normalizer(archive.state_normalizer())


def _poison_injector(step=0, nth=0):
    injector = FaultInjector(FaultPlan(
        events=(ComputeFault(step=step, site="forecast", nth=nth),)))
    injector.advance(step)
    return injector


class TestForecastValidator:
    def test_clean_forecast_passes(self):
        v = ForecastValidator(lower=[-1.0, -2.0], upper=[1.0, 2.0])
        assert v.validate(np.zeros((3, 4, 2), dtype=np.float32)) == []

    def test_violations_localized_per_channel(self):
        v = ForecastValidator(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        forecast = np.zeros((4, 2))
        forecast[0, 0] = np.nan
        forecast[1, 1] = 5.0
        forecast[2, 1] = -3.0
        found = {(bv.name, bv.kind): bv for bv in v.validate(forecast)}
        assert set(found) == {("ch0", "nonfinite"), ("ch1", "above"),
                              ("ch1", "below")}
        assert found[("ch1", "above")].worst == 5.0
        assert found[("ch1", "below")].worst == -3.0
        assert found[("ch1", "above")].count == 1
        assert "ch1[1] above x1" in found[("ch1", "above")].render()

    def test_infinities_are_nonfinite_not_above(self):
        v = ForecastValidator(lower=[-1.0], upper=[1.0])
        bad = np.array([[np.inf], [-np.inf]])
        kinds = [bv.kind for bv in v.validate(bad)]
        assert kinds == ["nonfinite"]
        assert v.validate(bad)[0].count == 2

    def test_from_normalizer_bounds(self, serve_world):
        archive, _, _, _ = serve_world
        norm = archive.state_normalizer()
        v = ForecastValidator.from_normalizer(norm)
        np.testing.assert_allclose(v.lower, norm.mean - 8.0 * norm.std)
        np.testing.assert_allclose(v.upper, norm.mean + 8.0 * norm.std)
        assert v.channels == norm.mean.size

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="one bound per channel"):
            ForecastValidator(lower=[0.0], upper=[1.0, 2.0])
        with pytest.raises(ValueError, match="lower bound above"):
            ForecastValidator(lower=[2.0], upper=[1.0])
        v = ForecastValidator(lower=[0.0, 0.0], upper=[1.0, 1.0])
        with pytest.raises(ValueError, match="channels"):
            v.validate(np.zeros((2, 3)))


class TestGuardedService:
    def test_clean_run_bit_exact_vs_unguarded(self, serve_world):
        bare = make_service(serve_world)
        guarded = make_service(serve_world,
                               validator=_validator(serve_world))
        req = request(serve_world, seed=11)
        plain = serve(bare, req)
        checked = serve(guarded, request(serve_world, seed=11))
        assert checked.ok and checked.quarantines == 0
        np.testing.assert_array_equal(checked.forecast, plain.forecast)
        assert guarded.tally["failed"] == 0

    def test_poisoned_forecast_quarantined_and_healed(self, serve_world,
                                                      obs_on):
        _, recorder = obs_on.enable_health()
        clean = serve(make_service(serve_world), request(serve_world,
                                                        seed=11))
        injector = _poison_injector()
        svc = make_service(serve_world, validator=_validator(serve_world),
                           injector=injector,
                           config=ServiceConfig(n_workers=2))
        resp = serve(svc, request(serve_world, seed=11))
        assert resp.status == "completed"
        assert resp.quarantines == 1
        # Healed bit-exactly: the re-run reproduces the clean forecast.
        np.testing.assert_array_equal(resp.forecast, clean.forecast)
        # The re-run was dispatched on a *different* worker than the
        # quarantined attempt (worker 0 serves first by rank order).
        assert resp.worker == 1
        assert dict(injector.injected) == {"sdc_forecast": 1}
        registry = obs_on.metrics()
        assert registry.counter(
            "serve.forecasts_quarantined").total() == 1
        assert registry.counter("serve.guardrail_reruns").total() == 1
        events = recorder.events(kind="serve.forecast_quarantined",
                                 min_severity="critical")
        assert events and "x1" in events[0].data["violations"]

    def test_rerun_budget_zero_fails_the_request(self, serve_world,
                                                 monkeypatch):
        monkeypatch.setattr(service, "GUARDRAIL_RERUNS", 0)
        svc = make_service(
            serve_world, validator=_validator(serve_world),
            injector=_poison_injector(),
            config=ServiceConfig(n_workers=2))
        resp = serve(svc, request(serve_world, seed=11))
        assert resp.status == "failed"
        assert "guardrails" in resp.error
        assert svc.tally["failed"] == 1 and svc.tally["completed"] == 0

    def test_undefended_service_serves_the_corruption(self, serve_world):
        """No validator: the poisoned forecast reaches the caller as a
        completed response — the baseline the guardrails exist to close."""
        clean = serve(make_service(serve_world), request(serve_world,
                                                        seed=11))
        svc = make_service(serve_world, injector=_poison_injector())
        resp = serve(svc, request(serve_world, seed=11))
        assert resp.status == "completed" and resp.quarantines == 0
        assert not np.array_equal(resp.forecast, clean.forecast)

    def test_sdc_check_reconciles_forecast_leg(self, serve_world, obs_on):
        injector = _poison_injector()
        svc = make_service(serve_world, validator=_validator(serve_world),
                           injector=injector,
                           config=ServiceConfig(n_workers=2))
        resp = serve(svc, request(serve_world, seed=11))
        assert resp.status == "completed"
        result = TraceReport().run(sdc_check, injector)
        assert result["agrees"], result
        assert result["per_kind"]["sdc_forecast"] == {
            "injected": 1, "detected": 1, "match": True}
        assert result["recovered"]["guardrail_reruns"] == 1
