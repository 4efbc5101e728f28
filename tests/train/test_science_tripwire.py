"""Science tripwire: three steps of the figure benches' model through
every training loop, each pinned by a digest of its final state.

The five learned-figure tables under ``benchmarks/results`` regenerate
only in CI's ``science`` job (about eleven minutes).  A change that moves
training numerics moves one of these digests in seconds.  The pins were
recorded before the loops became one engine; re-record one only for an
intended numerics change, and say why.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_CONFIG, TRAIN_CFG
from repro.baselines import DeterministicTrainer, EdmConfig, EdmTrainer
from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.diffusion import ConsistencyConfig, ConsistencyDistiller
from repro.model import Aeris
from repro.parallel import RankTopology, SwipeEngine
from repro.resilience.checksum import state_digest
from repro.train import MultistepConfig, MultistepFinetuner, Trainer

N_STEPS = 3

#: ``state_digest`` of weights, Adam moments, EMA shadow and the loss
#: history after ``N_STEPS`` steps.
PINNED = {
    "Trainer":
        "e6ffab7644dc433861e90bc4b31a36bfd203e978787d19d3a35323c9e779d74d",
    "EdmTrainer":
        "30873c50107c202570c955c3471ba235d9583cb53aaddd9ca4a0391091e5c47a",
    "DeterministicTrainer":
        "30f24a648117e314047a5bfe86fa0c656399b42934c58f816498442baabb39a8",
    "SwipeEngine":
        "c023a6a54be7820730cf38ee6e5e463ba7cdcaca437fb0d36b1008523afa174f",
    "MultistepFinetuner":
        "fabde1017e9230df34389a3be6394e8a470a933e76069dea9fc739cf1b0e539f",
    "ConsistencyDistiller":
        "43ce8905aea001a8f6020dbaf1e91ab96a0681272c063de77d7e2fa7eb4d3beb",
}


@pytest.fixture(scope="module")
def archive():
    """A short archive on the benches' 24x48 grid and seed."""
    return SyntheticReanalysis(ReanalysisConfig(
        height=24, width=48, train_years=0.1, val_years=0.02,
        test_years=0.02, seed=3, spinup_steps=40))


def _digest(model, optimizer, ema, history) -> str:
    arrays = {f"model/{n}": a for n, a in model.state_dict().items()}
    for i, (m, v) in enumerate(zip(optimizer.exp_avg, optimizer.exp_avg_sq)):
        arrays[f"m/{i}"], arrays[f"v/{i}"] = m, v
    if ema is not None:
        arrays.update({f"ema/{n}": a for n, a in ema.shadow.items()})
    arrays["history"] = np.asarray(history, dtype=np.float64)
    return state_digest(arrays)


def _batches(archive, size):
    """``N_STEPS`` normalized ``(cond, residual, forc)`` training batches."""
    rng = np.random.default_rng(0)
    norms = (archive.state_normalizer(), archive.residual_normalizer(),
             archive.forcing_normalizer())
    return [archive.training_batch(
        rng.choice(archive.split_indices("train"), size=size,
                   replace=False), *norms) for _ in range(N_STEPS)]


def _trainer(cls, archive, *extra):
    trainer = cls(Aeris(BENCH_CONFIG, seed=0), archive, TRAIN_CFG, *extra)
    trainer.fit(N_STEPS)
    return _digest(trainer.model, trainer.optimizer, trainer.ema,
                   trainer.history)


def _swipe(archive):
    topo = RankTopology(dp=2, pp=BENCH_CONFIG.pp_stages, wp_grid=(1, 1),
                        sp=1)
    engine = SwipeEngine(BENCH_CONFIG, archive, topo, lr=1e-3, seed=0)
    history = []
    for cond, residual, forc in _batches(archive, 8):
        x_t, t, v = engine.make_training_pairs(residual)
        history.append(engine.train_step(x_t, t, v, cond, forc, gas=2))
    return _digest(engine.replicas[0], engine.zero, None, history)


def _finetuner(archive):
    finetuner = MultistepFinetuner(Aeris(BENCH_CONFIG, seed=0), archive,
                                   MultistepConfig(rollout_steps=2,
                                                   batch_size=4, seed=0))
    finetuner.fit(N_STEPS)
    return _digest(finetuner.model, finetuner.optimizer, None,
                   finetuner.history)


def _distiller(archive):
    teacher = Aeris(BENCH_CONFIG, seed=0)
    teacher.eval()
    student = Aeris(BENCH_CONFIG, seed=0)
    distiller = ConsistencyDistiller(teacher, student,
                                     config=ConsistencyConfig(seed=0))
    for cond, residual, forc in _batches(archive, 4):
        distiller.train_step(residual, cond, forc)
    return _digest(student, distiller.optimizer, distiller.ema,
                   distiller.history)


RUNS = {
    "Trainer": lambda a: _trainer(Trainer, a),
    "EdmTrainer": lambda a: _trainer(EdmTrainer, a,
                                     EdmConfig(n_sample_steps=6)),
    "DeterministicTrainer": lambda a: _trainer(DeterministicTrainer, a),
    "SwipeEngine": _swipe,
    "MultistepFinetuner": _finetuner,
    "ConsistencyDistiller": _distiller,
}


@pytest.mark.parametrize("loop", sorted(RUNS))
def test_final_state_digest_is_pinned(archive, loop):
    assert RUNS[loop](archive) == PINNED[loop]
