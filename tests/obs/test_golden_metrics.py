"""One fixed monitored scenario, and everything it books.

``golden_metrics_schema.json`` was recorded at the last commit whose
call sites wrote through ``registry.counter(...).inc(...)`` behind an
``if registry is not None`` (751c430).  The booking hooks
(:func:`repro.obs.count` / ``gauge`` / ``observe``) must register the
same instruments — name, kind, help, buckets, label keys — and count
the same events.  Regenerated once since, for an intended change (PR 18,
single flight in ``execute_batch``): request ``d`` of the serve scenario
is member 0 of ``a`` in the same batch, so one member-step is no longer
computed twice — ``sampler.data_steps`` 53 → 52, ``sampler.member_forwards``
117 → 114, ``solver.steps`` 32 → 31, one ``serve.cache`` put fewer, and the
new ``serve.coalesced_steps``.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.kernels import abft_guard
from repro.model import Aeris
from repro.resilience import ComputeFault, FaultInjector, FaultPlan
from repro.serve import (BatcherConfig, DeployConfig, DeploymentController,
                         ForecastValidator, ServiceConfig)
from repro.train import Trainer
from repro.train.trainer import VALIDATION_SEED
from tests.clock import StepClock
from tests.resilience.test_sdc import CHAOS_EVENTS, GUARDED
from tests.serve.test_deploy import candidate_forecaster
from tests.serve.test_service import (_pinned_duration, make_service,
                                      scenario_requests)
from tests.train.test_trainer import TINY16

GOLDEN = Path(__file__).with_name("golden_metrics_schema.json")


@pytest.fixture(autouse=True)
def _observability_off():
    yield
    obs.disable()


def metrics_schema(registry) -> dict:
    """Name -> kind, help, buckets, the label-key sets in use, and (for
    counters) every series value.  Gauge values and histogram cells are
    left out: several are wall-clock durations."""
    out = {}
    for name, inst in sorted(registry.instruments.items()):
        entry = {"kind": inst.kind, "help": inst.help,
                 "label_keys": sorted({",".join(k for k, _ in key)
                                       for key in inst.series})}
        if inst.kind == "histogram":
            entry["buckets"] = list(inst.buckets)
        if inst.kind == "counter":
            entry["series"] = [[list(map(list, key)), value]
                               for key, value in sorted(inst.series.items())]
        out[name] = entry
    return out


def golden_scenario(tiny_archive, serve_world, tmp_path) -> dict:
    """Five guarded train steps through one fault of every compute site,
    a validation pass and a checkpoint; then the pinned serve scenario
    on two workers under a validator, with one poisoned forecast and a
    canary that takes half the traffic, shadows the rest and is withdrawn
    at the end."""
    archive, forecaster = serve_world[0], serve_world[1]
    with obs.monitored(clock=StepClock()) as session:
        trainer = Trainer(
            Aeris(TINY16, seed=0), tiny_archive, GUARDED,
            injector=FaultInjector(FaultPlan(events=CHAOS_EVENTS, seed=0)))
        with abft_guard():
            trainer.fit(5)
        trainer.held_out_loss(trainer.config.batch_size, 1, VALIDATION_SEED)
        trainer.save(str(tmp_path / "ckpt"))

        svc = make_service(
            serve_world, with_student=True, version="v1",
            config=ServiceConfig(n_workers=2,
                                 batcher=BatcherConfig(max_members=6)),
            validator=ForecastValidator.from_normalizer(
                archive.state_normalizer()),
            injector=FaultInjector(FaultPlan(seed=5, events=(
                ComputeFault(step=4, site="forecast"),))),
            duration_fn=_pinned_duration)
        controller = DeploymentController(svc, config=DeployConfig(
            canary_fraction=0.5, shadow_fraction=1.0,
            observation_window=100))
        controller.start_canary("v2", candidate_forecaster(forecaster))
        svc.run(scenario_requests(serve_world))
        controller.rollback("scenario over")
    return metrics_schema(session.registry)


def test_reproduces_the_committed_golden(tiny_archive, serve_world,
                                         tmp_path):
    recorded = golden_scenario(tiny_archive, serve_world, tmp_path)
    assert recorded == json.loads(GOLDEN.read_text())
