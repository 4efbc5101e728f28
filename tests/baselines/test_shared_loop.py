"""The baselines share ``Trainer``'s loop: their numbers must not have
moved, and what they inherit (``validation_loss``) scores *their* objective.

``golden_baseline_histories.json`` was recorded from the commit *before*
``EdmTrainer`` / ``DeterministicTrainer`` became subclasses of
:class:`repro.train.Trainer` (``golden_record`` below, run against that
commit's ``src``): 6-step loss histories as ``repr``, a SHA-256 over the
final weights and one over a short forecast.  Regenerate it only for an
intended numerical change, from the parent commit's ``src``.
"""

import hashlib
import json
import os

import numpy as np

from repro.baselines import DeterministicTrainer, EdmConfig, EdmTrainer
from repro.baselines.gencast_like import SIGMA_DATA
from repro.diffusion import weighted_velocity_loss
from repro.model import Aeris
from repro.tensor import Tensor, no_grad
from repro.train import Trainer, TrainerConfig
from repro.train import trainer as trainer_module
from tests.train.test_trainer import TINY16

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_baseline_histories.json")
CFG = TrainerConfig(batch_size=4, peak_lr=3e-3, warmup_images=40,
                    total_images=40_000, decay_images=400, seed=2)


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        a = np.ascontiguousarray(array)
        h.update(f"{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def golden_record(archive) -> dict:
    start = int(archive.split_indices("test")[0])
    state0 = archive.fields[start]
    edm = EdmTrainer(Aeris(TINY16, seed=2), archive, CFG,
                     EdmConfig(n_sample_steps=4))
    det = DeterministicTrainer(Aeris(TINY16, seed=1), archive, CFG)
    record = {}
    for name, trainer in (("edm", edm), ("deterministic", det)):
        trainer.fit(6)
        fc = trainer.forecaster()
        forecast = (fc.ensemble_rollout(state0, n_steps=1, n_members=2,
                                        seed=0, start_index=start)
                    if name == "edm"
                    else fc.rollout(state0, 2, start_index=start))
        record[name] = {
            "history": [repr(float(v)) for v in trainer.history],
            "weights_sha256": _sha256(
                p.data for _, p in trainer.model.named_parameters()),
            "forecast_sha256": _sha256([forecast]),
        }
    return record


def test_baseline_histories_reproduce_bit_for_bit(tiny_archive):
    with open(GOLDEN) as fh:
        assert golden_record(tiny_archive) == json.load(fh)


def _trigflow_loss(trainer, net, x0, rng_t, rng_z):
    flow = trainer.flow
    t = flow.sample_t(rng_t, x0.shape[0])
    z = rng_z.normal(0.0, flow.sigma_d, size=x0.shape).astype(np.float32)
    ct, st = np.cos(t)[:, None, None, None], np.sin(t)[:, None, None, None]
    return net((ct * x0 + st * z) / flow.sigma_d, t) * flow.sigma_d, \
        ct * z - st * x0, 1.0


def _edm_loss(trainer, net, x0, rng_sigma, rng_z):
    """Karras et al. in the denoiser form: lambda(sigma) |D(x; sigma) - x0|^2."""
    edm = trainer.flow
    sigma = edm.sample_sigma(rng_sigma, x0.shape[0])[:, None, None, None]
    x = x0 + sigma * rng_z.normal(size=x0.shape).astype(np.float32)
    denoised = edm.c_skip(sigma) * x + edm.c_out(sigma) * net(
        edm.c_in(sigma) * x, edm.c_noise(sigma[:, 0, 0, 0]))
    return denoised, x0, \
        (sigma ** 2 + SIGMA_DATA ** 2) / (sigma * SIGMA_DATA) ** 2


def _point_loss(trainer, net, x0, rng_a, rng_b):
    return net(np.zeros_like(x0), np.zeros(x0.shape[0], np.float32)), x0, 1.0


def _by_hand(trainer, objective, n_batches=2, seed=1234):
    """The mean of ``objective`` over the batches ``validation_loss``
    draws, written without ``network_pair``."""
    rngs = [np.random.default_rng(seed + k) for k in range(3)]
    archive, losses = trainer.archive, []
    for _ in range(n_batches):
        indices = rngs[0].choice(archive.split_indices("val"),
                                 size=trainer.config.batch_size,
                                 replace=False)
        cond, x0, forc = archive.training_batch(
            indices, trainer.state_norm, trainer.residual_norm,
            trainer.forcing_norm)

        def net(x_in, t_in):
            with no_grad():
                return trainer.model(Tensor(x_in), Tensor(t_in),
                                     Tensor(cond), Tensor(forc)).numpy()

        pred, target, weight = objective(trainer, net, x0, rngs[1], rngs[2])
        # the weight multiplies the squared error: fold its root into both
        root = np.sqrt(np.asarray(weight, dtype=np.float32))
        losses.append(weighted_velocity_loss(
            Tensor(pred * root), target * root, trainer.lat_weights,
            trainer.var_weights).item())
    return float(np.mean(losses))


def test_validation_loss_is_each_trainers_own_objective(tiny_archive,
                                                        monkeypatch):
    monkeypatch.setattr(trainer_module, "VALIDATION_BATCHES", 2)
    model = Aeris(TINY16, seed=5)  # the same weights under all three
    cases = [(Trainer(model, tiny_archive, CFG), _trigflow_loss),
             (EdmTrainer(model, tiny_archive, CFG), _edm_loss),
             (DeterministicTrainer(model, tiny_archive, CFG), _point_loss)]
    values = []
    for trainer, objective in cases:
        value = trainer.validation_loss()
        np.testing.assert_allclose(value, _by_hand(trainer, objective),
                                   rtol=1e-4, err_msg=type(trainer).__name__)
        assert value == trainer.validation_loss()  # fixed seeds
        values.append(value)
    assert len({round(v, 3) for v in values}) == 3, values
