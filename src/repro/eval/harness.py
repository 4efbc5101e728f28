"""Structured medium-range evaluation harness (the WeatherBench2-style
protocol of the paper's Figure 5a, as a reusable API).

Feeds any ensemble system — a callable ``(state0, n_steps, ic_index) ->
(members, n_steps + 1, H, W, C)`` — through a common set of initial
conditions and scores it with latitude-weighted ensemble-mean RMSE, fair
CRPS, and the spread/skill ratio at the requested lead times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data import SyntheticReanalysis, TOY_SET
from ..obs.profile import get_tracer, observe as _observe
from ..obs.profile import span as _span
from .probabilistic import crps_ensemble, ensemble_mean_rmse, spread_skill_ratio

__all__ = ["EvalProtocol", "Scores", "MediumRangeEvaluator"]

RolloutFn = Callable[[np.ndarray, int, int], np.ndarray]


def _timed_metric(metric: str, fn, *args) -> float:
    """Compute one score; while observability is on, time it as an
    ``eval.metric`` span and feed an ``eval.metric_s`` histogram."""
    tracer = get_tracer()
    if tracer is None:
        return float(fn(*args))
    with tracer.span("eval.metric", category="eval", metric=metric):
        value = float(fn(*args))
    _observe("eval.metric_s", "per-metric scoring time",
             tracer.spans[-1].duration, metric=metric)
    return value


@dataclass(frozen=True)
class EvalProtocol:
    """What to evaluate: leads (days), variables, ICs."""

    lead_days: tuple[int, ...] = (1, 3, 5, 7, 10, 14)
    variables: tuple[str, ...] = ("Z500", "T2M", "Q700")
    n_initial_conditions: int = 4
    steps_per_day: int = 4
    first_ic_offset: int = 8  # skip the very start of the test split

    @property
    def n_steps(self) -> int:
        return max(self.lead_days) * self.steps_per_day


@dataclass
class Scores:
    """Scores keyed by ``(variable, lead_day)``."""

    rmse: dict = field(default_factory=dict)
    crps: dict = field(default_factory=dict)
    ssr: dict = field(default_factory=dict)

    def row(self, variable: str) -> str:
        cells = []
        for (var, lead) in sorted(self.rmse, key=lambda k: k[1]):
            if var != variable:
                continue
            cells.append(f"d{lead}: {self.rmse[(var, lead)]:7.2f}/"
                         f"{self.crps[(var, lead)]:7.2f}/"
                         f"{self.ssr[(var, lead)]:4.2f}")
        return "  ".join(cells)


class MediumRangeEvaluator:
    """Scores ensemble systems over a common IC set."""

    def __init__(self, archive: SyntheticReanalysis,
                 protocol: EvalProtocol = EvalProtocol()):
        self.archive = archive
        self.protocol = protocol
        self.ics = self._initial_conditions()

    def _initial_conditions(self) -> list[int]:
        p = self.protocol
        idx = self.archive.split_indices("test")
        last_valid = len(idx) - p.n_steps - 2
        if last_valid <= p.first_ic_offset:
            raise ValueError("test split too short for the requested leads")
        picks = np.linspace(p.first_ic_offset, last_valid,
                            p.n_initial_conditions).astype(int)
        return [int(idx[i]) for i in picks]

    def evaluate(self, rollout_fn: RolloutFn) -> Scores:
        """Run and score one system over all ICs."""
        p = self.protocol
        grid = self.archive.grid
        per_ic: dict[tuple[str, int], list[tuple[float, float, float]]] = {}
        for ic in self.ics:
            with _span("eval.rollout", category="eval", ic=ic,
                       n_steps=p.n_steps):
                ens = rollout_fn(self.archive.fields[ic], p.n_steps, ic)
            truth = self.archive.fields[ic:ic + p.n_steps + 1]
            for var in p.variables:
                c = TOY_SET.index(var)
                for lead in p.lead_days:
                    k = lead * p.steps_per_day
                    e = ens[:, k, ..., c]
                    t = truth[k, ..., c]
                    entry = (
                        _timed_metric("rmse", ensemble_mean_rmse, e, t,
                                      grid),
                        _timed_metric("crps", crps_ensemble, e, t, grid),
                        _timed_metric("ssr", spread_skill_ratio, e, t, grid)
                        if ens.shape[0] > 1 else float("nan"))
                    per_ic.setdefault((var, lead), []).append(entry)
        scores = Scores()
        for key, entries in per_ic.items():
            arr = np.asarray(entries)
            scores.rmse[key] = float(arr[:, 0].mean())
            scores.crps[key] = float(arr[:, 1].mean())
            scores.ssr[key] = float(np.nanmean(arr[:, 2])) \
                if not np.isnan(arr[:, 2]).all() else float("nan")
        return scores

    def evaluate_systems(self, systems: dict[str, RolloutFn]
                         ) -> dict[str, Scores]:
        out = {}
        for name, fn in systems.items():
            with _span("eval.system", category="eval", system=name):
                out[name] = self.evaluate(fn)
        return out

    def format_table(self, results: dict[str, Scores]) -> str:
        lines = []
        for var in self.protocol.variables:
            lines.append(f"{var} (lead: RMSE/CRPS/SSR):")
            for name, scores in results.items():
                lines.append(f"  {name:14s} {scores.row(var)}")
        return "\n".join(lines)
