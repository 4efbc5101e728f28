"""``SimRunner``: execute scenarios on the virtual-clock loops and judge
them against the invariant registry.

One runner owns the heavy shared state (synthetic archives, the serve
model pair, candidate models for deploy scenarios) and builds everything
scenario-specific fresh per run — service, supervisor, injector,
observability scope — so two runs of the same scenario are bit-identical
and runs cannot contaminate each other.

Workload execution:

* ``train`` — :class:`~repro.resilience.ElasticSupervisor` over a
  3-stage micro pipeline (DP=2) with checkpointing into a per-run
  temporary directory.  Transient-only scenarios also run a fault-free
  *twin* with identical seeds; the bit-exact-equivalence invariant
  compares the two loss histories.
* ``guarded_train`` — the SDC-guarded :class:`~repro.train.Trainer`
  under :func:`~repro.kernels.abft_guard`, with compute-fault injection.
* ``serve`` / ``serve_deploy`` — a :class:`~repro.serve.ForecastService`
  over a fault-aware :class:`~repro.parallel.SimCluster`, physical
  guardrails always attached, Poisson arrivals across tiers, and — for
  ``serve_deploy`` — a mid-run canary via
  :class:`~repro.serve.DeploymentController`.  The worker pool uses an
  analytic ``duration_fn`` (seconds per stacked forward) instead of
  measured wall time, so virtual completion order is machine-independent
  and replays are bit-exact.

Failed runs shrink via :func:`repro.simtest.shrink.shrink` and serialize
as JSON repro files (:func:`write_repro` / :func:`load_repro` /
:meth:`SimRunner.replay`) whose recorded violation set replay must
reproduce exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ..data import ReanalysisConfig, SyntheticReanalysis
from ..model import Aeris, AerisConfig
from ..obs.profile import monitored
from ..parallel.comm import SimCluster
from ..parallel.topology import RankTopology
from ..resilience.atomic import atomic_write
from ..resilience.checksum import json_digest
from ..resilience.faults import (ClusterFailure, CommTimeout,
                                 ComputeCorruption, FaultInjector,
                                 FaultPlan, MessageCorruption,
                                 ResilienceError)
from ..resilience.supervisor import ElasticSupervisor, SupervisorConfig
from ..serve.api import ForecastRequest, TIERS
from ..serve.guardrails import ForecastValidator
from ..serve.service import ForecastService, ServiceConfig
from ..train.trainer import Trainer, TrainerConfig
from .invariants import InvariantRegistry, Violation
from .scenario import Scenario, ScenarioGen, SCHEMA_VERSION

__all__ = ["SimWorld", "RunResult", "SimRunner", "write_repro",
           "load_repro", "violations_fingerprint"]

#: 3-stage micro pipeline for supervised chaos runs (mirrors the chaos
#: suite's smallest real-pipeline config).
MICRO = AerisConfig(name="simtest-micro", height=16, width=32, channels=9,
                    forcing_channels=3, dim=16, heads=2, ffn_dim=32,
                    swin_layers=1, blocks_per_layer=1, window=(4, 4),
                    time_freqs=8)

#: Analytic virtual service duration: seconds per stacked forward plus a
#: per-member assembly cost.  The values are arbitrary but fixed — what
#: matters is that they are a pure function of the batch result.
_SECONDS_PER_FORWARD = 0.004
_SECONDS_PER_MEMBER = 0.001


def _duration_model(result) -> float:
    return (_SECONDS_PER_FORWARD * result["forwards"]
            + _SECONDS_PER_MEMBER * result["members"])


class SimWorld:
    """Lazily-built heavy components shared across scenario runs.

    Everything here is read-only with respect to a scenario run; tests
    inject their session fixtures to avoid rebuilding archives.
    """

    def __init__(self, train_archive=None, serve_components=None):
        self._train_archive = train_archive
        self._serve = serve_components
        self._candidates: dict = {}

    def train_archive(self) -> SyntheticReanalysis:
        if self._train_archive is None:
            self._train_archive = SyntheticReanalysis(ReanalysisConfig(
                height=16, width=32, train_years=0.5, val_years=0.1,
                test_years=0.2, seed=0, spinup_steps=120))
        return self._train_archive

    def serve_components(self):
        """``(archive, forecaster, student, test_indices)`` for serving."""
        if self._serve is None:
            from .. import quickstart_components
            archive, trainer = quickstart_components(
                height=8, width=16, train_years=0.2, test_years=0.1)
            forecaster = trainer.forecaster()
            student = Aeris(forecaster.model.config, seed=3)
            self._serve = (archive, forecaster, student,
                           [int(i) for i in
                            archive.split_indices("test")[:4]])
        return self._serve

    def candidate(self, seed: int, poisoned: bool):
        """A canary-candidate forecaster (memoized per seed/poison).

        ``poisoned`` grossly corrupts every parameter — the deployment
        pipeline shipping broken weights — which the guardrails must
        catch and the controller must roll back.
        """
        key = (int(seed), bool(poisoned))
        if key not in self._candidates:
            from .. import quickstart_components
            _, trainer = quickstart_components(
                height=8, width=16, train_years=0.2, test_years=0.1,
                seed=int(seed))
            forecaster = trainer.forecaster()
            if poisoned:
                for _name, p in sorted(
                        forecaster.model.named_parameters()):
                    p.data += 1e4
            self._candidates[key] = forecaster
        return self._candidates[key]


@dataclass
class RunResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    outcome: str
    violations: list = field(default_factory=list)
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def fingerprint(self) -> str:
        return violations_fingerprint(self.violations)

    def violation_names(self) -> set:
        return {v.invariant for v in self.violations}


def violations_fingerprint(violations) -> str:
    """SHA-256 over the canonical JSON of the sorted violation set — the
    bit-exactness token replay compares against."""
    return json_digest([v.to_dict() for v in violations])


class SimRunner:
    """Run scenarios, judge invariants, explore seed ranges."""

    def __init__(self, registry: InvariantRegistry | None = None,
                 world: SimWorld | None = None):
        self.registry = (registry if registry is not None
                         else InvariantRegistry.default())
        self.world = world if world is not None else SimWorld()
        self.gen = ScenarioGen()

    # -- single-scenario execution -----------------------------------------
    def run(self, scenario: Scenario) -> RunResult:
        artifacts = self._execute(scenario)
        violations = self.registry.evaluate(scenario, artifacts)
        return RunResult(scenario=scenario,
                         outcome=artifacts["outcome"],
                         violations=violations,
                         error=artifacts.get("error", ""))

    def _execute(self, scenario: Scenario) -> dict:
        if scenario.workload == "train":
            return self._run_train(scenario)
        if scenario.workload == "guarded_train":
            return self._run_guarded_train(scenario)
        return self._run_serve(scenario)

    @staticmethod
    def _outcome(exc: ResilienceError) -> str:
        if isinstance(exc, ClusterFailure):
            return "cluster_failure"
        if isinstance(exc, ComputeCorruption):
            return "compute_escalation"
        if isinstance(exc, (CommTimeout, MessageCorruption)):
            return "comm_escalation"
        return "crashed"

    # -- train --------------------------------------------------------------
    def _supervised_run(self, scenario: Scenario, plan: FaultPlan,
                        root: str, artifacts: dict) -> None:
        p = scenario.train
        topology = RankTopology(dp=p.dp, pp=MICRO.pp_stages,
                                wp_grid=(1, 1), sp=1)
        with monitored() as m:
            supervisor = ElasticSupervisor(
                MICRO, self.world.train_archive(), topology,
                SupervisorConfig(seed=p.seed, global_batch=p.global_batch,
                                 gas=p.gas, save_every=p.save_every,
                                 checkpoint_root=root,
                                 max_restarts=p.max_restarts),
                fault_plan=plan)
            try:
                result = supervisor.run(p.n_steps)
                outcome = "completed"
                error = ""
            except ResilienceError as exc:
                result = {"history": list(supervisor.history)}
                outcome = self._outcome(exc)
                error = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 — becomes a violation
                result = {"history": list(supervisor.history)}
                outcome = "crashed"
                error = f"{type(exc).__name__}: {exc}"
        from ..train.checkpoint import list_checkpoints
        artifacts.update(
            outcome=outcome, error=error, result=result,
            supervisor=supervisor, injector=supervisor.injector,
            tracer=m.tracer, registry=m.registry, monitor=m.monitor,
            # basenames, captured before the tmpdir is reaped — the
            # invariants must never see (or embed) the tmp path itself
            checkpoint_dirs=[os.path.basename(d)
                             for d in list_checkpoints(root)])

    def _run_train(self, scenario: Scenario) -> dict:
        artifacts: dict = {}
        tmp = tempfile.mkdtemp(prefix="simtest-train-")
        try:
            self._supervised_run(scenario, scenario.fault_plan(),
                                 os.path.join(tmp, "chaos"), artifacts)
            run_twin = (artifacts["outcome"] == "completed"
                        and scenario.has_transients()
                        and not scenario.has_failstop()
                        and self.registry.needs("train.transient_bit_exact"))
            if run_twin:
                twin: dict = {}
                self._supervised_run(scenario, FaultPlan(),
                                     os.path.join(tmp, "twin"), twin)
                artifacts["twin_history"] = twin["result"]["history"]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return artifacts

    # -- guarded train -------------------------------------------------------
    def _run_guarded_train(self, scenario: Scenario) -> dict:
        from ..kernels import abft_guard
        p = scenario.train
        injector = FaultInjector(scenario.fault_plan())
        with monitored() as m:
            trainer = Trainer(
                Aeris(MICRO, seed=p.seed), self.world.train_archive(),
                TrainerConfig(batch_size=p.global_batch, peak_lr=3e-3,
                              warmup_images=40, total_images=40_000,
                              decay_images=400, seed=p.seed, guarded=True,
                              max_step_retries=2),
                injector=injector)
            try:
                with abft_guard():
                    trainer.fit(p.n_steps)
                outcome = "completed"
                error = ""
            except ResilienceError as exc:
                outcome = self._outcome(exc)
                error = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001
                outcome = "crashed"
                error = f"{type(exc).__name__}: {exc}"
        return {"outcome": outcome, "error": error, "trainer": trainer,
                "injector": injector, "tracer": m.tracer,
                "registry": m.registry, "monitor": m.monitor}

    # -- serve ---------------------------------------------------------------
    def _requests(self, scenario: Scenario, archive,
                  test_indices) -> list:
        p = scenario.serve
        rng = np.random.default_rng([p.seed, 1111, scenario.seed % 2**31])
        gaps = rng.exponential(1.0 / p.rate_hz, size=p.n_requests)
        arrivals = np.cumsum(gaps)
        requests = []
        for i in range(p.n_requests):
            tier = TIERS[int(rng.choice(3, p=p.tier_weights))]
            idx = test_indices[int(rng.integers(len(test_indices)))]
            requests.append(ForecastRequest(
                init_state=archive.fields[idx],
                n_steps=p.lead_steps, n_members=p.n_members, tier=tier,
                seed=int(rng.integers(2**31)), start_index=idx,
                arrival_s=float(round(arrivals[i], 6)),
                request_id=f"r{i:04d}"))
        return requests

    def _run_serve(self, scenario: Scenario) -> dict:
        archive, forecaster, student, test_indices = \
            self.world.serve_components()
        p = scenario.serve
        injector = FaultInjector(scenario.fault_plan())
        cluster = SimCluster(p.n_workers + 1, injector=injector)
        validator = ForecastValidator.from_normalizer(
            archive.state_normalizer())
        requests = self._requests(scenario, archive, test_indices)
        controller = None
        with monitored() as m:
            service = ForecastService(
                forecaster, student=student,
                config=ServiceConfig(n_workers=p.n_workers),
                cluster=cluster, injector=injector, validator=validator,
                duration_fn=_duration_model)
            if scenario.deploy is not None:
                from ..serve.deploy import (DeployConfig,
                                            DeploymentController)
                d = scenario.deploy
                controller = DeploymentController(
                    service,
                    config=DeployConfig(
                        canary_fraction=d.canary_fraction,
                        shadow_fraction=d.shadow_fraction,
                        observation_window=d.observation_window,
                        seed=scenario.seed % 2**31))
                controller.start_canary(
                    "v1", forecaster=self.world.candidate(
                        d.candidate_seed, d.poison_candidate))
            try:
                responses = service.run(requests)
                outcome = "completed"
                error = ""
            except Exception as exc:  # noqa: BLE001 — the loop heals
                # typed resilience errors internally; anything escaping
                # (typed or not) is a finding.
                responses = []
                outcome = "crashed"
                error = f"{type(exc).__name__}: {exc}"
        return {"outcome": outcome, "error": error, "service": service,
                "responses": responses, "controller": controller,
                "injector": injector, "cluster": cluster,
                "tracer": m.tracer, "registry": m.registry,
                "monitor": m.monitor}

    # -- exploration ---------------------------------------------------------
    def explore(self, n: int, seed_start: int = 0,
                time_budget_s: float | None = None,
                on_result=None) -> list:
        """Run scenarios for seeds ``seed_start .. seed_start + n - 1``
        (stopping early on the time budget); returns every
        :class:`RunResult`.  ``on_result(result)`` is called per run —
        the CLI uses it for progress and shrink-on-failure."""
        results = []
        t0 = time.monotonic()
        for i in range(n):
            if (time_budget_s is not None
                    and time.monotonic() - t0 >= time_budget_s):
                break
            result = self.run(self.gen.scenario(seed_start + i))
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results

    # -- replay --------------------------------------------------------------
    def replay(self, repro: dict) -> tuple[RunResult, list, bool]:
        """Re-run a repro file's scenario; returns ``(result,
        expected_violations, exact_match)`` where ``exact_match`` is
        bit-exact equality of the violation sets."""
        scenario = Scenario.from_dict(repro["scenario"])
        expected = [Violation.from_dict(v) for v in repro["violations"]]
        result = self.run(scenario)
        match = ([v.to_dict() for v in result.violations]
                 == [v.to_dict() for v in expected]
                 and result.fingerprint() == repro["fingerprint"])
        return result, expected, match


# -- repro files ---------------------------------------------------------------
def write_repro(path: str, result: RunResult, note: str = "") -> dict:
    """Serialize one (usually shrunk) failing run as a JSON repro."""
    payload = {
        "schema": SCHEMA_VERSION,
        "scenario": result.scenario.to_dict(),
        "outcome": result.outcome,
        "violations": [v.to_dict() for v in result.violations],
        "fingerprint": result.fingerprint(),
        "note": note,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def load_repro(path: str) -> dict:
    """Read a repro; anything but a whole one of a known schema is a
    ``ValueError`` naming ``path``."""
    try:
        with open(path) as fh:
            repro = json.load(fh)
        missing = {"scenario", "violations", "fingerprint"} - set(repro)
        if missing:
            raise ValueError(f"missing {sorted(missing)}")
        if repro.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unknown schema {repro.get('schema')!r}")
    except (ValueError, TypeError) as exc:
        raise ValueError(f"unreadable simtest repro {path}: "
                         f"{type(exc).__name__}: {exc}") from exc
    return repro
