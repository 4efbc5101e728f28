"""Cross-version forecast-cache isolation.

The cache is keyed by weights digest, so isolation between model
versions is a property of *content*, not of version labels: different
weights can never share an entry or resume each other's prefixes, while
the same bytes loaded under two names deduplicate perfectly.
"""

import numpy as np

from repro.diffusion import SolverConfig
from repro.model import Aeris
from repro.serve import ForecastRequest, ForecastService, TierPolicy, \
    TierRouter
from tests.serve.test_service import serve

ROUTER = TierRouter().with_policy(TierPolicy(
    name="standard", priority=1, solver_config=SolverConfig(n_steps=2)))


def two_version_service(serve_world, same_weights=False):
    archive, forecaster, _, idx = serve_world
    svc = ForecastService(forecaster, router=ROUTER, version="v1")
    if same_weights:
        candidate = forecaster
    else:
        model = Aeris(forecaster.model.config, seed=99)
        candidate = type(forecaster)(
            model=model, state_norm=forecaster.state_norm,
            residual_norm=forecaster.residual_norm,
            forcing_fn=forecaster.forcing_fn,
            forcing_norm=forecaster.forcing_norm, flow=forecaster.flow,
            solver_config=forecaster.solver_config)
    svc.versions.add("v2", candidate)
    return svc, archive, idx


def pin(svc, version):
    svc.versions.router = lambda request: version


def request(archive, idx, **kwargs):
    kwargs.setdefault("n_steps", 2)
    kwargs.setdefault("n_members", 2)
    return ForecastRequest(init_state=archive.fields[idx], start_index=idx,
                           **kwargs)


class TestDifferentWeights:
    def test_no_shared_entries(self, serve_world):
        svc, archive, idx = two_version_service(serve_world)
        pin(svc, "v1")
        first = serve(svc, request(archive, idx, seed=1))
        entries_v1 = len(svc.cache)
        pin(svc, "v2")
        other = serve(svc, request(archive, idx, seed=1))
        # The identical request on the other version is a full miss and
        # doubles the resident set — nothing crossed the digest boundary.
        assert first.cache_hits == 0 and other.cache_hits == 0
        assert len(svc.cache) == 2 * entries_v1
        assert not np.array_equal(first.forecast, other.forecast)

    def test_no_cross_version_prefix_resumption(self, serve_world):
        svc, archive, idx = two_version_service(serve_world)
        pin(svc, "v1")
        serve(svc, request(archive, idx, seed=1, n_steps=2))
        pin(svc, "v2")
        longer = serve(svc, request(archive, idx, seed=1, n_steps=3))
        assert longer.cache_hits == 0
        # And the resumption the other version must NOT provide still
        # works within a version.
        pin(svc, "v1")
        resumed = serve(svc, request(archive, idx, seed=1, n_steps=3))
        assert resumed.cache_hits == 4  # 2 members x 2-step prefix

    def test_each_version_bit_identical_to_its_direct_rollout(
            self, serve_world):
        svc, archive, idx = two_version_service(serve_world)
        for version in ("v1", "v2"):
            pin(svc, version)
            resp = serve(svc, request(archive, idx, seed=5))
            stepper = svc.versions.bindings[version].steppers["standard"]
            direct = stepper.ensemble_rollout(
                archive.fields[idx], n_steps=2, n_members=2, seed=5,
                start_index=idx)
            assert np.array_equal(resp.forecast, direct)


class TestSameWeights:
    def test_identical_bytes_share_entries_across_labels(self, serve_world):
        """Two labels over the same digest deduplicate — content
        addressing means re-registering the same weights costs nothing."""
        svc, archive, idx = two_version_service(serve_world,
                                                same_weights=True)
        pin(svc, "v1")
        first = serve(svc, request(archive, idx, seed=1))
        pin(svc, "v2")
        again = serve(svc, request(archive, idx, seed=1))
        assert first.cache_hits == 0
        assert again.cache_hits == 4  # full hit through the other label
        assert np.array_equal(first.forecast, again.forecast)
        bindings = svc.versions.bindings
        assert bindings["v1"].weights_digest == bindings["v2"].weights_digest
