"""``VersionTable`` alone: no service, no model forward.  The error texts
are the ones ``ForecastService`` raised from its own version methods and
``_admit`` before the table owned them."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.serve import (ForecastRequest, Rejected, VersionTable,
                         default_tiers)
from tests.clock import StepClock

SHAPE = (4, 8, 3)


class StubModel:
    def __init__(self, shape=SHAPE, fill=0.0):
        self.config = SimpleNamespace(height=shape[0], width=shape[1],
                                      channels=shape[2])
        self.weights = np.full(5, fill, dtype=np.float32)

    def state_dict(self):
        return {"w": self.weights}


@dataclass
class StubForecaster:
    """The attributes ``ModelBinding.build`` reads off a forecaster."""

    model: StubModel
    solver_config: object = None
    state_norm: object = None
    residual_norm: object = None
    forcing_fn: object = None
    forcing_norm: object = None
    flow: object = None


class StubQueue:
    def __init__(self, pinned=()):
        self.pinned = list(pinned)

    def reassign_version(self, src, dst):
        moved = self.pinned.count(src)
        self.pinned = [dst if v == src else v for v in self.pinned]
        return moved


def table(queue=None) -> VersionTable:
    versions = VersionTable(default_tiers(), queue or StubQueue())
    versions.add("v1", StubForecaster(StubModel()))
    return versions


def request(tier="standard", shape=SHAPE) -> ForecastRequest:
    return ForecastRequest(init_state=np.zeros(shape, np.float32),
                           n_steps=1, tier=tier)


class TestLoading:
    def test_first_version_is_active_and_silent(self):
        with obs.monitored(clock=StepClock()) as session:
            versions = table()
        assert versions.active == "v1" and list(versions.bindings) == ["v1"]
        assert not session.recorder.events()
        assert "serve.loaded_versions" not in session.registry.snapshot()

    def test_add_loads_without_shifting_traffic(self):
        versions = table()
        with obs.monitored(clock=StepClock()) as session:
            binding = versions.add("v2", StubForecaster(StubModel(fill=1.0)))
        assert versions.active == "v1"
        assert versions.bindings["v2"] is binding
        assert binding.weights_nbytes == 20 and binding.field_shape == SHAPE
        assert set(binding.steppers) == {"standard", "high"}  # no student
        assert versions.stats() == {
            "active": "v1",
            "loaded": {"v1": versions.bindings["v1"].weights_digest[:12],
                       "v2": binding.weights_digest[:12]}}
        assert [e.kind for e in session.recorder.events()] == [
            "serve.version_loaded"]
        assert session.registry.gauge("serve.loaded_versions").value() == 2

    def test_duplicate_add_raises(self):
        with pytest.raises(ValueError, match="version 'v1' already loaded"):
            table().add("v1", StubForecaster(StubModel()))

    def test_shape_mismatched_add_raises(self):
        versions = table()
        with pytest.raises(ValueError, match=(
                r"version 'v2' field shape \(4, 8, 5\) differs from "
                r"active \(4, 8, 3\)")):
            versions.add("v2", StubForecaster(StubModel((4, 8, 5))))
        assert list(versions.bindings) == ["v1"]


class TestActivateRemove:
    def test_activate_unloaded_raises(self):
        with pytest.raises(ValueError, match="version 'v9' not loaded"):
            table().activate("v9")

    def test_remove_active_or_unloaded_raises(self):
        versions = table()
        with pytest.raises(ValueError, match="cannot remove the active"):
            versions.remove("v1")
        with pytest.raises(ValueError, match="version 'v9' not loaded"):
            versions.remove("v9")

    def test_remove_relabels_queued_work_and_returns_the_count(self):
        queue = StubQueue(["v1", "v2", "v2", "v1", "v2"])
        versions = table(queue)
        versions.add("v2", StubForecaster(StubModel(fill=1.0)))
        with obs.monitored(clock=StepClock()) as session:
            assert versions.remove("v2") == 3
        assert queue.pinned == ["v1"] * 5
        assert list(versions.bindings) == ["v1"]
        moved = session.registry.counter("serve.requests_reassigned")
        assert moved.total(src="v2", dst="v1") == 3
        assert [e.kind for e in session.recorder.events()] == [
            "serve.version_unloaded"]

    def test_activate_then_remove_the_old_version(self):
        versions = table()
        versions.add("v2", StubForecaster(StubModel(fill=1.0)))
        versions.activate("v2")
        assert versions.active == "v2"
        assert versions.remove("v1") == 0


class TestAdmit:
    def test_routes_to_the_active_version_or_the_routers(self):
        versions = table()
        versions.add("v2", StubForecaster(StubModel(fill=1.0)))
        assert versions.admit(request()) == ("v1", versions.bindings["v1"])
        versions.router = lambda req: "v2"
        assert versions.admit(request()) == ("v2", versions.bindings["v2"])

    def test_router_naming_an_unloaded_version_is_a_rejection(self):
        versions = table()
        versions.router = lambda req: "ghost"
        with pytest.raises(Rejected, match=(
                r"request rejected \(version_unavailable\): "
                r"version 'ghost' not loaded")) as exc:
            versions.admit(request())
        assert exc.value.reason == "version_unavailable"

    def test_tier_without_a_model_is_rejected(self):
        with pytest.raises(Rejected, match=(
                r"tier 'fast' has no model in version 'v1'")) as exc:
            table().admit(request(tier="fast"))
        assert exc.value.reason == "tier_unavailable"

    def test_wrong_field_shape_is_rejected(self):
        with pytest.raises(Rejected, match=(
                r"want \(4, 8, 3\), got \(4, 8, 2\)")) as exc:
            table().admit(request(shape=(4, 8, 2)))
        assert exc.value.reason == "bad_shape"
