"""Shared benchmark fixtures.

The domain benchmarks (Figures 5–7) need trained forecasting systems; the
three learned systems (AERIS diffusion, GenCast-like EDM, deterministic) are
trained once per session on a shared bench archive and reused.  Result
tables are written to ``benchmarks/results/`` in addition to stdout so the
regenerated "figures" survive pytest's output capture.  Every table also
gets a machine-readable ``<name>.json`` sidecar (pass structured values via
``write_result(..., data=...)``); when :mod:`repro.obs` is enabled the
sidecar additionally carries the metrics snapshot and span summary, so a
bench run leaves a regressable telemetry artifact.
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.baselines import DeterministicTrainer, EdmConfig, EdmTrainer
from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.model import Aeris, AerisConfig, ParallelLayout
from repro.train import Trainer, TrainerConfig

# run_benches.py redirects sidecars (e.g. into a CI artifact dir) via env.
RESULTS_DIR = os.environ.get("BENCH_RESULTS_DIR") or os.path.join(
    os.path.dirname(__file__), "results")

#: The benchmark model: same architecture as the paper's, toy scale.
BENCH_CONFIG = AerisConfig(
    name="bench", height=24, width=48, channels=9, forcing_channels=3,
    dim=48, heads=4, ffn_dim=96, swin_layers=2, blocks_per_layer=2,
    window=(4, 4), time_freqs=16,
    layout=ParallelLayout(wp=4, wp_grid=(2, 2), pp=4, sp=2, gas=2))

TRAIN_STEPS = 350
TRAIN_CFG = TrainerConfig(batch_size=8, peak_lr=6e-3, warmup_images=160,
                          total_images=500_000, decay_images=1_000, seed=0)


CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def write_result(name: str, text: str, data=None) -> None:
    """Write the text table plus a ``<stem>.json`` machine-readable report
    (structured ``data`` if the bench provides it, and — when
    :mod:`repro.obs` is enabled — the metrics snapshot + span summary)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write(text)
    stem = os.path.splitext(name)[0]
    payload = {"bench": stem, "text": text}
    if data is not None:
        payload["data"] = data
    registry = obs.metrics()
    if registry is not None:
        payload["metrics"] = registry.snapshot()
    tracer = obs.get_tracer()
    if tracer is not None:
        payload["span_summary"] = tracer.summary()
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
    print(text)


def _fit_cached(trainer, tag: str):
    """Train once per tag and cache the checkpoint (``Trainer.save``) on
    disk, so re-running individual benches does not retrain.  A cached
    checkpoint is loaded only if it was trained for this model config,
    seed and step count; anything else retrains and overwrites it."""
    from repro.model.config import config_to_dict
    from repro.train import CheckpointError, read_sharded_checkpoint
    path = os.path.join(CACHE_DIR, tag)
    try:
        shards, extra = read_sharded_checkpoint(path)
    except CheckpointError:
        shards, extra = {}, {}
    lineage = extra.get("lineage", {})
    if (extra.get("step") == TRAIN_STEPS
            and lineage.get("seed") == trainer.config.seed
            and lineage.get("model_config")
            == config_to_dict(trainer.model.config)):
        trainer.restore(shards, extra, where=path)
        return trainer
    trainer.fit(TRAIN_STEPS)
    trainer.save(path)
    return trainer


@pytest.fixture(scope="session")
def bench_archive() -> SyntheticReanalysis:
    """24x48 archive: 1.0y train / 0.25y val / 0.75y test."""
    return SyntheticReanalysis(ReanalysisConfig(
        height=24, width=48, train_years=1.0, val_years=0.25,
        test_years=0.75, seed=3, spinup_steps=200))


@pytest.fixture(scope="session")
def aeris_trainer(bench_archive) -> Trainer:
    return _fit_cached(Trainer(Aeris(BENCH_CONFIG, seed=0), bench_archive,
                               TRAIN_CFG), "aeris")


@pytest.fixture(scope="session")
def edm_trainer(bench_archive) -> EdmTrainer:
    return _fit_cached(EdmTrainer(Aeris(BENCH_CONFIG, seed=1), bench_archive,
                                  TRAIN_CFG, EdmConfig(n_sample_steps=6)),
                       "edm")


@pytest.fixture(scope="session")
def det_trainer(bench_archive) -> DeterministicTrainer:
    return _fit_cached(DeterministicTrainer(Aeris(BENCH_CONFIG, seed=2),
                                            bench_archive, TRAIN_CFG),
                       "det")
