"""Observed-vs-predicted cross checks: ``TraceReport``.

The paper's performance numbers come from two places that must agree —
timers (what actually ran) and the analytical model (what Section VI-D
predicts).  :class:`TraceReport` closes that loop for the reproduction:
it collects the results of *checks* over one traced run and renders them
as a human-readable text block and as machine-readable JSON for
benchmark artifacts.

A check is a plain function ``check(report, *subjects, **tolerances) ->
dict`` that lives beside the bookkeeping it audits and reads
``report.tracer`` / ``report.registry`` — e.g.
:func:`repro.parallel.pipeline.pipeline_check` (observed vs. modelled
bubble) or :func:`repro.serve.service.serve_check` (request
conservation); DESIGN.md lists them all.  Its result carries at least
``check`` (a name), ``agrees`` (the verdict) and ``summary`` (the text
:meth:`TraceReport.render` prints; further lines are indented beneath
the first), so a new check needs no edit here.
"""

from __future__ import annotations

import json

from .metrics import MetricsRegistry
from .profile import get_tracer, metrics
from .trace import Tracer

__all__ = ["TraceReport"]


class TraceReport:
    """Aggregates cross-checks over one traced run."""

    def __init__(self, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None):
        self.tracer: Tracer = (tracer if tracer is not None
                               else get_tracer())
        self.registry = registry if registry is not None else metrics()
        if self.tracer is None:
            raise ValueError("no tracer: pass one or obs.enable() first")
        self.checks: list[dict] = []

    def run(self, check, *subjects, **tolerances) -> dict:
        """Run ``check(self, *subjects, **tolerances)``, keep its result
        for :meth:`render` / :meth:`to_dict`, and return it."""
        if self.registry is None:
            raise ValueError("no metrics registry active")
        result = check(self, *subjects, **tolerances)
        self.checks.append(result)
        return result

    # -- rendering ---------------------------------------------------------
    def to_dict(self) -> dict:
        out = {"checks": self.checks,
               "span_summary": self.tracer.summary()}
        if self.registry is not None:
            out["metrics"] = self.registry.snapshot()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        """Human-readable report block."""
        lines = ["TraceReport"]
        for c in self.checks:
            lines.extend("  " + line for line in c["summary"].splitlines())
        lines.append("  spans:")
        lines.extend("    " + line
                     for line in self.tracer.summary_table().splitlines())
        return "\n".join(lines)
