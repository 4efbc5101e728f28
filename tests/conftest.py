"""Shared fixtures: a small synthetic reanalysis reused across test modules
(generation takes a few seconds, so it is session-scoped), the small
untrained model pair the serve tests share, and a kept-worker set retired
around every test."""

import numpy as np
import pytest

from repro import quickstart_components, rows
from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.model import Aeris


@pytest.fixture(autouse=True)
def retired_workers():
    """Each test starts and ends with no kept worker: a worker runs the
    code and the owners it was forked with, so a test's monkeypatches
    never reach another test's splits."""
    rows.WORKERS.close()
    yield
    rows.WORKERS.close()


@pytest.fixture(scope="session")
def tiny_archive() -> SyntheticReanalysis:
    """16x32 archive, ~0.8 years total (train 0.5 / val 0.1 / test 0.2)."""
    config = ReanalysisConfig(height=16, width=32, train_years=0.5,
                              val_years=0.1, test_years=0.2, seed=0,
                              spinup_steps=120)
    return SyntheticReanalysis(config)


@pytest.fixture(scope="session")
def tiny_norms(tiny_archive):
    return {
        "state": tiny_archive.state_normalizer(),
        "residual": tiny_archive.residual_normalizer(),
        "forcing": tiny_archive.forcing_normalizer(),
    }


@pytest.fixture(scope="session")
def serve_world():
    """``(archive, forecaster, student, test_index)`` over an 8x16 archive
    (read-only: services get their own caches and queues).  Determinism,
    batching, caching, and fault handling do not depend on forecast
    skill, so nothing here calls ``fit()``."""
    archive, trainer = quickstart_components(height=8, width=16,
                                             train_years=0.2,
                                             test_years=0.1)
    forecaster = trainer.forecaster()
    student = Aeris(forecaster.model.config, seed=3)
    idx = int(archive.split_indices("test")[0])
    return archive, forecaster, student, idx
