"""Tiered samplers: quality tiers mapped onto the paper's inference paths.

AERIS ships two inference regimes (Section IV Figure 1d, Section VII-C):
the DPM-Solver++ 2S probability-flow integration (2 model evaluations per
solver step, plus one final denoise) and the consistency-distilled
one-step student ("reduce inference to a single step, thereby lowering
computational cost by orders of magnitude").  The serving tiers expose
exactly those:

* ``fast``     — one consistency-student evaluation per data step;
* ``standard`` — DPM-Solver 2S at the paper's default 10 steps;
* ``high``     — DPM-Solver 2S at 20 steps with trigonometric churn
  (the ensemble-spread configuration).

:class:`TierRouter` is a deterministic pure mapping ``tier name →
TierPolicy`` — the same request always takes the same path, which is what
makes served forecasts reproducible and cacheable.  :class:`SloTracker`
books per-tier latency against each tier's objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..diffusion import ResidualForecaster, SolverConfig
from ..diffusion.sampler import (conditioning_rows, count_data_steps,
                                 per_member_indices)
from ..obs.profile import count as _count
from ..obs.profile import health as _obs_health
from ..obs.profile import observe as _observe
from ..obs.profile import span as _span
from .api import Rejected

__all__ = ["TierPolicy", "TierRouter", "SloTracker", "OneStepForecaster",
           "default_tiers"]


@dataclass(frozen=True)
class TierPolicy:
    """How one quality tier is served.

    ``solver_config=None`` routes to the one-step consistency student;
    otherwise the DPM-Solver runs with the given configuration.  Lower
    ``priority`` is served first.  ``deadline_s`` bounds queue wait
    (exceeding it turns the request into a :class:`~repro.serve.Timeout`),
    ``slo_s`` is the latency objective the tracker scores against, and
    ``max_queue_depth`` is the tier's admission cap.
    """

    name: str
    priority: int
    solver_config: SolverConfig | None
    deadline_s: float = 30.0
    slo_s: float = 5.0
    max_queue_depth: int = 64

    def forwards_per_data_step(self) -> int:
        """Stacked model evaluations one data step costs at this tier:
        2 per 2S update (``n_steps`` grid points = ``n_steps - 1``
        updates) plus the final denoise; 1 for the one-step student."""
        if self.solver_config is None:
            return 1
        return 2 * (self.solver_config.n_steps - 1) + 1


def default_tiers() -> dict[str, TierPolicy]:
    """The paper-derived tier table (fast = distilled student, standard =
    default solver, high = churned long schedule)."""
    return {
        "fast": TierPolicy(name="fast", priority=0, solver_config=None,
                           deadline_s=2.0, slo_s=0.5, max_queue_depth=128),
        "standard": TierPolicy(name="standard", priority=1,
                               solver_config=SolverConfig(n_steps=10),
                               deadline_s=30.0, slo_s=5.0,
                               max_queue_depth=64),
        "high": TierPolicy(name="high", priority=2,
                           solver_config=SolverConfig(n_steps=20, churn=0.3),
                           deadline_s=120.0, slo_s=20.0,
                           max_queue_depth=32),
    }


class TierRouter:
    """Deterministic request → tier-policy mapping."""

    def __init__(self, policies: dict[str, TierPolicy] | None = None):
        self.policies = dict(policies) if policies is not None \
            else default_tiers()
        for name, policy in self.policies.items():
            if name != policy.name:
                raise ValueError(f"policy {policy.name!r} keyed as {name!r}")

    def route(self, tier: str) -> TierPolicy:
        policy = self.policies.get(tier)
        if policy is None:
            raise Rejected("tier_unavailable",
                           f"no policy for tier {tier!r}")
        return policy

    def with_policy(self, policy: TierPolicy) -> "TierRouter":
        """A new router with one policy replaced (routers are cheap)."""
        policies = dict(self.policies)
        policies[policy.name] = policy
        return TierRouter(policies)


class SloTracker:
    """Per-tier latency bookkeeping against each tier's objective."""

    def __init__(self, policies: dict[str, TierPolicy]):
        self.policies = policies
        self.latencies: dict[str, list[float]] = {t: [] for t in policies}

    def record(self, tier: str, latency_s: float) -> None:
        self.latencies.setdefault(tier, []).append(latency_s)
        policy = self.policies.get(tier)
        _observe("serve.latency_s", "served-request latency", latency_s,
                 tier=tier)
        if policy is not None and latency_s > policy.slo_s:
            _count("serve.slo_misses",
                   "completed requests over their tier objective", 1,
                   tier=tier)
        monitor = _obs_health()
        if monitor is not None and policy is not None:
            monitor.observe_latency(tier, latency_s, policy.slo_s)

    def attainment(self, tier: str) -> float:
        """Fraction of completions within the tier objective (1.0 when
        nothing completed — an empty tier is not in violation)."""
        lats = self.latencies.get(tier, [])
        policy = self.policies.get(tier)
        if not lats or policy is None:
            return 1.0
        return sum(1 for v in lats if v <= policy.slo_s) / len(lats)

    def summary(self) -> dict:
        out = {}
        for tier, lats in self.latencies.items():
            policy = self.policies.get(tier)
            row = {"count": len(lats),
                   "slo_s": policy.slo_s if policy else None,
                   "attainment": self.attainment(tier)}
            if lats:
                arr = np.sort(np.asarray(lats))
                row.update(
                    p50_s=float(np.percentile(arr, 50)),
                    p95_s=float(np.percentile(arr, 95)),
                    p99_s=float(np.percentile(arr, 99)),
                    max_s=float(arr[-1]))
            out[tier] = row
        return out


@dataclass
class OneStepForecaster(ResidualForecaster):
    """The ``fast`` tier's stepper: one consistency-student evaluation per
    data step (TrigFlow jump from pure noise at ``t = π/2`` straight to
    ``t = 0``).  Everything but the data step is
    :class:`~repro.diffusion.ResidualForecaster`'s — fields, per-member
    seeded generators, rollouts; ``solver_config`` is not read.
    """

    def step_members(self, states: np.ndarray,
                     time_indices: int | Sequence[int],
                     rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One data step for ``M`` members in one student forward."""
        m = len(rngs)
        time_indices = per_member_indices(states, time_indices, m)
        flow = self.flow
        with _span("sampler.one_step", category="diffusion", members=m,
                   time_index=int(time_indices[0])):
            cond, forc = conditioning_rows(self, states, time_indices)
            z = np.stack([rng.normal(0.0, flow.sigma_d,
                                     size=states.shape[1:])
                          .astype(np.float32) for rng in rngs])
            t = np.full(m, np.pi / 2, dtype=np.float32)
            residual_std = flow.denoise_from_velocity(
                z, flow.velocity(self._network(cond, forc), z, t), t)
            count_data_steps(m)
            return states + self.residual_norm.denormalize(residual_std)
