"""Eval-harness adapter: score a forecaster into a JSON-able scorecard.

A registry scorecard is the skill evidence a version carries for the
rest of its life: per-``(variable, lead)`` ensemble-mean RMSE, fair
CRPS, and spread/skill ratio from :class:`repro.eval.MediumRangeEvaluator`
on a held-out window, plus per-metric aggregates the promotion gate
compares.  Keys are flattened to ``"VAR/dLEAD"`` strings so the card
survives the JSON round trip through the registry index unchanged.
"""

from __future__ import annotations

import numpy as np

from ..eval.harness import EvalProtocol, MediumRangeEvaluator, Scores

__all__ = ["build_scorecard", "scores_to_scorecard"]

#: Metrics recorded per (variable, lead) cell.
_METRICS = ("rmse", "crps", "ssr")


# How a candidate is scored: eval protocol + ensemble settings, sized for
# the toy reanalysis (short leads, few ICs) so gating stays cheap enough to
# run inside tests and examples.  One protocol for every version, or the
# cards the gate compares would not be comparable; an operational
# deployment would widen it, not change the schema.
PROTOCOL = EvalProtocol(
    lead_days=(1,), variables=("Z500", "T2M"),
    n_initial_conditions=2, steps_per_day=2, first_ic_offset=2)
N_MEMBERS = 3
SEED = 0


def scores_to_scorecard(scores: Scores, **extra) -> dict:
    """Flatten harness :class:`Scores` into the registry's JSON schema."""
    cells: dict[str, dict[str, float]] = {}
    for metric in _METRICS:
        for (var, lead), value in getattr(scores, metric).items():
            cells.setdefault(f"{var}/d{lead}", {})[metric] = float(value)
    summary = {}
    for metric in _METRICS:
        values = [c[metric] for c in cells.values()
                  if metric in c and np.isfinite(c[metric])]
        if values:
            summary[metric] = float(np.mean(values))
    return {
        "protocol": {
            "lead_days": list(PROTOCOL.lead_days),
            "variables": list(PROTOCOL.variables),
            "n_initial_conditions": PROTOCOL.n_initial_conditions,
            "steps_per_day": PROTOCOL.steps_per_day,
            "n_members": N_MEMBERS,
            "seed": SEED,
        },
        "cells": cells,
        "summary": summary,
        **extra,
    }


def build_scorecard(forecaster, archive) -> dict:
    """Evaluate ``forecaster`` on ``archive``'s held-out test split.

    Works for anything with the ``ensemble_rollout(state0, n_steps,
    n_members, seed, start_index)`` contract — both the diffusion
    :class:`ResidualForecaster` and the one-step consistency student.
    """
    evaluator = MediumRangeEvaluator(archive, PROTOCOL)

    def rollout(state0, n_steps, ic):
        return forecaster.ensemble_rollout(
            state0, n_steps, n_members=N_MEMBERS, seed=SEED, start_index=ic)

    return scores_to_scorecard(evaluator.evaluate(rollout))
