"""Serving fixtures (``serve_world`` itself lives in ``tests/conftest.py``:
the golden-metrics scenario in ``tests/obs`` serves through it too)."""

import pytest


@pytest.fixture
def obs_on():
    """Metrics + tracing for the duration of one test."""
    import repro.obs as obs
    obs.enable()
    yield obs
    obs.disable()
