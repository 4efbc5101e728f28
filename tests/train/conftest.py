"""Training fixtures: one trained tiny model, shared read-only by the
tests that need learned weights (its 120 steps take about 5 s)."""

import pytest

from repro.model import Aeris
from repro.train import Trainer, TrainerConfig
from tests.train.test_trainer import TINY16


@pytest.fixture(scope="session")
def trained(tiny_archive):
    """A :class:`Trainer` after 120 steps at batch 4; do not step it."""
    trainer = Trainer(Aeris(TINY16, seed=0), tiny_archive,
                      TrainerConfig(batch_size=4, peak_lr=3e-3,
                                    warmup_images=40, total_images=40_000,
                                    decay_images=400, seed=0))
    trainer.fit(120)
    return trainer
