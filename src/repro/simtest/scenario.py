"""Scenario schema + seeded whole-scenario sampling (``ScenarioGen``).

A :class:`Scenario` is everything one deterministic simulation run needs:
the workload family (supervised SWiPe training, SDC-guarded training,
forecast serving, serving with a mid-run canary deploy), the cluster
shape, a full :class:`~repro.resilience.FaultPlan` (scheduled events plus
background rates), the serve load (Poisson arrivals across tiers), the
checkpoint cadence, and the deploy policy.  Every field is a plain JSON
value, so a scenario round-trips losslessly through
:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict` — that is what
makes a shrunk failure a committable repro file.

:class:`ScenarioGen` samples a whole scenario from a single ``uint64``
seed.  The generation schema is versioned (:data:`SCHEMA_VERSION`): a
repro file records the schema it was generated under, and replay refuses
a schema it does not understand instead of silently reinterpreting the
fields.  Changing *how* seeds map to scenarios (new fields, different
ranges) must bump the version so old corpus entries keep meaning what
they meant.

Sampling invariants the runner relies on:

* at most **one** fail-stop event per training scenario (a second
  fail-stop addressed at a renumbered post-recovery grid can name a rank
  that no collective ever touches again, which would make
  "no fault goes unobserved" unverifiable by construction);
* fault event steps stay inside the horizon, fail-stop ranks inside the
  world;
* serve scenarios always attach the physical guardrails (a poisoned
  forecast with no validator is undetectable by design, not a bug);
* compute-SDC events are only scheduled for workloads that have a
  detection layer for them (``guarded_train``: gemm/weight/optimizer;
  ``serve``: forecast).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ..resilience.faults import (BitFlip, ComputeFault, Drop, FailStop,
                                 FaultPlan, Straggle)

__all__ = ["SCHEMA_VERSION", "WORKLOADS", "TrainParams", "ServeParams",
           "DeployParams", "Scenario", "ScenarioGen"]

#: Version of the seed -> scenario mapping.  Bump on any change to the
#: sampled fields or their ranges; replay rejects unknown versions.
SCHEMA_VERSION = 1

WORKLOADS = ("train", "guarded_train", "serve", "serve_deploy")

#: Transfer primitives scheduled comm faults may target ("*" = any).
_COMM_PRIMITIVES = ("allreduce", "p2p", "*")


@dataclass(frozen=True)
class TrainParams:
    """Supervised-training knobs (workloads ``train``/``guarded_train``)."""

    n_steps: int = 3
    dp: int = 2
    global_batch: int = 8
    gas: int = 2
    save_every: int = 1
    max_restarts: int = 2
    seed: int = 0


@dataclass(frozen=True)
class ServeParams:
    """Serving-load knobs (workloads ``serve``/``serve_deploy``)."""

    n_workers: int = 2
    n_requests: int = 8
    rate_hz: float = 4.0
    tier_weights: tuple[float, float, float] = (0.25, 0.5, 0.25)
    n_members: int = 1
    lead_steps: int = 2
    seed: int = 0


@dataclass(frozen=True)
class DeployParams:
    """Mid-run canary knobs (workload ``serve_deploy``)."""

    canary_fraction: float = 0.4
    shadow_fraction: float = 0.5
    observation_window: int = 4
    candidate_seed: int = 1
    #: Grossly corrupt the candidate's weights before deploying it — the
    #: guardrails must quarantine its output and the controller must
    #: roll back to the incumbent.
    poison_candidate: bool = False


@dataclass(frozen=True)
class Scenario:
    """One fully-specified simulation run (JSON-serializable)."""

    seed: int
    workload: str
    #: Scheduled fault events as plain dicts (``{"kind": ..., ...}``).
    events: tuple = ()
    fault_seed: int = 0
    #: Background fault rates as a sorted key/value tuple (hashable and
    #: order-stable, so scenario equality survives a JSON round trip).
    rates: tuple = (("p_bitflip", 0.0), ("p_compute", 0.0),
                    ("p_drop", 0.0), ("p_straggle", 0.0))
    train: TrainParams | None = None
    serve: ServeParams | None = None
    deploy: DeployParams | None = None
    schema: int = SCHEMA_VERSION

    # -- derived views -----------------------------------------------------
    @property
    def rate(self) -> dict:
        return dict(self.rates)

    @property
    def horizon(self) -> int:
        """The shrinkable run length: training steps or serve requests."""
        if self.workload in ("train", "guarded_train"):
            return self.train.n_steps
        return self.serve.n_requests

    def with_horizon(self, n: int) -> "Scenario":
        if self.workload in ("train", "guarded_train"):
            return replace(self, train=replace(self.train, n_steps=n))
        return replace(self, serve=replace(self.serve, n_requests=n))

    def fault_plan(self) -> FaultPlan:
        """Materialize the typed :class:`FaultPlan` for the injector."""
        rates = self.rate
        return FaultPlan(events=tuple(event_from_dict(e)
                                      for e in self.events),
                         seed=self.fault_seed,
                         p_bitflip=rates["p_bitflip"],
                         p_drop=rates["p_drop"],
                         p_straggle=rates["p_straggle"],
                         p_compute=rates["p_compute"])

    def has_failstop(self) -> bool:
        return any(e["kind"] == "failstop" for e in self.events)

    def has_transients(self) -> bool:
        rates = self.rate
        return (any(e["kind"] in ("bitflip", "drop", "straggle")
                    for e in self.events)
                or rates["p_bitflip"] > 0 or rates["p_drop"] > 0
                or rates["p_straggle"] > 0)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        out = asdict(self)
        out["events"] = [dict(e) for e in self.events]
        out["rates"] = dict(self.rates)
        for section in ("train", "serve", "deploy"):
            if out[section] is not None:
                out[section] = dict(out[section])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        schema = int(data.get("schema", 0))
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"scenario schema {schema} != supported {SCHEMA_VERSION} "
                "(regenerate the repro or run an older tree)")
        if data["workload"] not in WORKLOADS:
            raise ValueError(f"unknown workload {data['workload']!r}")
        rates = dict(data["rates"])
        events = tuple(dict(e) for e in data["events"])
        for e in events:
            event_from_dict(e)  # an inert event is rejected here, not mid-run
        return cls(
            seed=int(data["seed"]), workload=data["workload"],
            events=events,
            fault_seed=int(data["fault_seed"]),
            rates=tuple(sorted(
                (k, float(rates[k]))
                for k in ("p_bitflip", "p_drop", "p_straggle",
                          "p_compute"))),
            train=(TrainParams(**data["train"])
                   if data.get("train") is not None else None),
            serve=(ServeParams(**{
                **data["serve"],
                "tier_weights": tuple(data["serve"]["tier_weights"]),
            }) if data.get("serve") is not None else None),
            deploy=(DeployParams(**data["deploy"])
                    if data.get("deploy") is not None else None),
            schema=schema)


def event_from_dict(e: dict):
    """One plain event dict -> the typed scheduled-fault event."""
    kind = e["kind"]
    if kind == "failstop":
        return FailStop(rank=int(e["rank"]), step=int(e["step"]))
    if kind == "bitflip":
        return BitFlip(step=int(e["step"]), primitive=e["primitive"],
                       nth=int(e["nth"]))
    if kind == "drop":
        return Drop(step=int(e["step"]), primitive=e["primitive"],
                    nth=int(e["nth"]))
    if kind == "straggle":
        return Straggle(step=int(e["step"]), primitive=e["primitive"],
                        nth=int(e["nth"]), delay_s=float(e["delay_s"]))
    if kind == "compute":
        return ComputeFault(step=int(e["step"]), site=e["site"],
                            nth=int(e["nth"]))
    raise ValueError(f"unknown event kind {kind!r}")


def _rates(rng, transient_scale: float, p_compute: float) -> tuple:
    """Background-rate tuple; half of all scenarios run rate-free so the
    scheduled-event paths get undiluted coverage."""
    if transient_scale and rng.random() < 0.5:
        flips = float(rng.uniform(0, 0.02)) * transient_scale
        drops = float(rng.uniform(0, 0.02)) * transient_scale
        lags = float(rng.uniform(0, 0.03)) * transient_scale
    else:
        flips = drops = lags = 0.0
    return tuple(sorted({"p_bitflip": round(flips, 6),
                         "p_drop": round(drops, 6),
                         "p_straggle": round(lags, 6),
                         "p_compute": round(p_compute, 6)}.items()))


class ScenarioGen:
    """Seed -> :class:`Scenario`, under one versioned schema.

    The generator is stateless: ``scenario(seed)`` is a pure function of
    ``(schema, seed)``, so an explorer and a replayer constructed
    independently agree on every sampled field.
    """

    def scenario(self, seed: int) -> Scenario:
        seed = int(seed) % 2**64  # wrap into uint64 space
        rng = np.random.default_rng(seed)
        workload = WORKLOADS[int(rng.choice(4, p=(0.35, 0.2, 0.25, 0.2)))]
        fault_seed = int(rng.integers(0, 2**31))
        if workload == "train":
            return self._train(seed, rng, fault_seed)
        if workload == "guarded_train":
            return self._guarded_train(seed, rng, fault_seed)
        return self._serve(seed, rng, fault_seed,
                           deploy=workload == "serve_deploy")

    # -- per-workload samplers ---------------------------------------------
    def _comm_events(self, rng, n: int, horizon: int,
                     max_nth: int = 2) -> list[dict]:
        events = []
        for _ in range(n):
            kind = ("bitflip", "drop", "straggle")[int(rng.integers(3))]
            ev = {"kind": kind, "step": int(rng.integers(horizon)),
                  "primitive": _COMM_PRIMITIVES[int(rng.integers(3))],
                  "nth": int(rng.integers(max_nth))}
            if kind == "straggle":
                ev["delay_s"] = round(float(rng.uniform(0.01, 0.05)), 6)
            events.append(ev)
        return events

    def _train(self, seed: int, rng, fault_seed: int) -> Scenario:
        train = TrainParams(
            n_steps=int(rng.integers(2, 5)),
            dp=2, global_batch=8,
            gas=int(rng.integers(1, 3)),
            save_every=int(rng.integers(1, 3)),
            max_restarts=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 4)))
        world = train.dp * 3  # MICRO has a fixed 3-stage pipeline
        events = self._comm_events(rng, int(rng.integers(0, 4)),
                                   train.n_steps)
        if rng.random() < 0.4:
            events.append({"kind": "failstop",
                           "rank": int(rng.integers(world)),
                           "step": int(rng.integers(train.n_steps))})
        return Scenario(seed=seed, workload="train",
                        events=tuple(events), fault_seed=fault_seed,
                        rates=_rates(rng, 1.0, 0.0), train=train)

    def _guarded_train(self, seed: int, rng, fault_seed: int) -> Scenario:
        train = TrainParams(n_steps=int(rng.integers(3, 6)), dp=1,
                            global_batch=4, gas=1, save_every=0,
                            max_restarts=0, seed=int(rng.integers(0, 4)))
        events = []
        for _ in range(int(rng.integers(0, 3))):
            events.append({
                "kind": "compute",
                "step": int(rng.integers(train.n_steps)),
                "site": ("gemm", "weight", "optimizer")[
                    int(rng.integers(3))],
                "nth": int(rng.integers(2))})
        p_compute = (round(float(rng.uniform(0, 0.01)), 6)
                     if rng.random() < 0.3 else 0.0)
        return Scenario(seed=seed, workload="guarded_train",
                        events=tuple(events), fault_seed=fault_seed,
                        rates=_rates(rng, 0.0, p_compute), train=train)

    def _serve(self, seed: int, rng, fault_seed: int,
               deploy: bool) -> Scenario:
        serve = ServeParams(
            n_workers=int(rng.integers(1, 4)),
            n_requests=int(rng.integers(5, 15)),
            rate_hz=round(float(rng.uniform(2.0, 8.0)), 4),
            tier_weights=((0.25, 0.5, 0.25) if rng.random() < 0.5
                          else (0.0, 0.7, 0.3)),
            n_members=int(rng.integers(1, 3)),
            lead_steps=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 4)))
        # Fault "steps" are dispatch indices in the serve loop.
        events = self._comm_events(rng, int(rng.integers(0, 3)),
                                   serve.n_requests, max_nth=1)
        if rng.random() < 0.3:
            events.append({"kind": "failstop",
                           "rank": int(rng.integers(serve.n_workers)),
                           "step": int(rng.integers(serve.n_requests))})
        deploy_params = None
        if deploy:
            deploy_params = DeployParams(
                canary_fraction=round(float(rng.uniform(0.2, 0.6)), 4),
                shadow_fraction=round(float(rng.uniform(0.0, 0.6)), 4),
                observation_window=int(rng.integers(2, 5)),
                candidate_seed=int(rng.integers(1, 3)),
                poison_candidate=bool(rng.random() < 0.4))
        if not deploy and rng.random() < 0.4:
            events.append({"kind": "compute",
                           "step": int(rng.integers(serve.n_requests)),
                           "site": "forecast", "nth": 0})
        return Scenario(seed=seed,
                        workload="serve_deploy" if deploy else "serve",
                        events=tuple(events), fault_seed=fault_seed,
                        rates=_rates(rng, 0.5, 0.0), serve=serve,
                        deploy=deploy_params)
