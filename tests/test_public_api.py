"""Smoke tests for the top-level public API."""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_table_ii_accessible(self):
        assert set(repro.TABLE_II) == {"1.3B", "13B", "40B", "80B", "26B(L)"}

    def test_subpackages_importable(self):
        for pkg in ("tensor", "nn", "model", "diffusion", "data",
                    "parallel", "perf", "train", "baselines", "eval"):
            module = getattr(repro, pkg)
            assert hasattr(module, "__all__")

    def test_quickstart_end_to_end(self):
        archive, trainer = repro.quickstart_components(train_years=0.3,
                                                       seed=7)
        loss0 = trainer.train_step()
        assert np.isfinite(loss0)
        val = trainer.validation_loss()
        assert np.isfinite(val)
        fc = trainer.forecaster(repro.SolverConfig(n_steps=2))
        ic = int(archive.split_indices("test")[0])
        out = fc.step(archive.fields[ic], ic, np.random.default_rng(0))
        assert out.shape == archive.fields[ic].shape
        assert np.isfinite(out).all()

    def test_validation_loss_reproducible(self):
        _, trainer = repro.quickstart_components(train_years=0.3, seed=8)
        a = trainer.validation_loss()
        b = trainer.validation_loss()
        assert a == b
