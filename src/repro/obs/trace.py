"""Span tracer: nested timed spans with attributes, exportable as Chrome
``trace_event`` JSON and as a plain-text summary table.

A :class:`Span` is one timed interval on a *track* (rendered as a thread
row in ``chrome://tracing`` / Perfetto).  Spans come from two sources:

* live timing — ``with tracer.span("train.step"): ...`` reads the clock on
  entry/exit (the clock is injectable for deterministic tests);
* reconstructed timelines — :meth:`Tracer.add_span` records an interval at
  explicit timestamps, which is how the pipeline engine lays its measured
  per-stage costs onto the per-rank 1F1B schedule so the bubble is visible
  in the trace viewer even though the simulation executes sequentially.

This is the paper's "timers" methodology (Section VI-D) made inspectable:
every figure-quality claim about where time goes should be checkable by
opening the exported trace.
"""

from __future__ import annotations

import json
import time

from ..resilience.atomic import atomic_write
from .metrics import text_table

__all__ = ["Span", "Tracer"]


class Span:
    """One completed timed interval.

    ``Span.allocated`` counts every construction — the overhead tests
    assert it stays flat while tracing is disabled.
    """

    __slots__ = ("name", "start", "end", "track", "category", "attrs")

    allocated = 0

    def __init__(self, name: str, start: float, end: float,
                 track: str = "main", category: str | None = None,
                 attrs: dict | None = None):
        Span.allocated += 1
        self.name = name
        self.start = start
        self.end = end
        self.track = track
        self.category = category
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.start:.6f}..{self.end:.6f}, "
                f"track={self.track!r})")


class _LiveSpan:
    """Context manager recording one live span into its tracer."""

    __slots__ = ("tracer", "name", "track", "category", "attrs", "start")

    def __init__(self, tracer: "Tracer", name: str, track: str,
                 category: str | None, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.track = track
        self.category = category
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        end = self.tracer.clock()
        self.tracer.spans.append(Span(self.name, self.start, end,
                                      track=self.track,
                                      category=self.category,
                                      attrs=self.attrs))
        return None


class Tracer:
    """Records spans; exports Chrome ``trace_event`` JSON and text tables."""

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else time.perf_counter
        self.spans: list[Span] = []

    # -- recording ---------------------------------------------------------
    def span(self, name: str, track: str = "main",
             category: str | None = None, **attrs) -> _LiveSpan:
        """Open a live span (use as a context manager)."""
        return _LiveSpan(self, name, track, category, attrs)

    def add_span(self, name: str, start: float, end: float,
                 track: str = "main", category: str | None = None,
                 **attrs) -> Span:
        """Record a span at explicit timestamps (virtual timelines)."""
        span = Span(name, start, end, track=track, category=category,
                    attrs=attrs)
        self.spans.append(span)
        return span

    def clear(self) -> None:
        self.spans.clear()

    def select(self, category: str | None = None,
               track_prefix: str | None = None) -> list[Span]:
        """Filter recorded spans (used by :class:`~repro.obs.report.TraceReport`)."""
        out = []
        for s in self.spans:
            if category is not None and s.category != category:
                continue
            if track_prefix is not None and not s.track.startswith(track_prefix):
                continue
            out.append(s)
        return out

    # -- Chrome trace_event export ----------------------------------------
    def to_chrome(self) -> list[dict]:
        """Chrome ``trace_event`` array ("X" complete events, µs units).

        Tracks map to thread rows via ``thread_name`` metadata events, so
        per-rank pipeline tracks render as one row per rank.
        """
        tids: dict[str, int] = {}
        events: list[dict] = []
        for span in self.spans:
            tid = tids.setdefault(span.track, len(tids))
            event = {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "pid": 0,
                "tid": tid,
            }
            if span.category is not None:
                event["cat"] = span.category
            if span.attrs:
                event["args"] = {k: _jsonable(v)
                                 for k, v in span.attrs.items()}
            events.append(event)
        meta = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "args": {"name": track}}
                for track, tid in tids.items()]
        meta.append({"name": "process_name", "ph": "M", "pid": 0,
                     "args": {"name": "repro"}})
        return meta + events

    def write_chrome(self, path: str) -> None:
        atomic_write(path, json.dumps(self.to_chrome()))

    # -- text summary ------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Aggregate spans by name: count / total / mean / min / max."""
        agg: dict[str, dict] = {}
        for s in self.spans:
            cell = agg.setdefault(s.name, {"count": 0, "total": 0.0,
                                           "min": float("inf"),
                                           "max": float("-inf")})
            d = s.duration
            cell["count"] += 1
            cell["total"] += d
            cell["min"] = min(cell["min"], d)
            cell["max"] = max(cell["max"], d)
        for cell in agg.values():
            cell["mean"] = cell["total"] / cell["count"]
        return agg

    def summary_table(self) -> str:
        rows = [("span", "count", "total_s", "mean_s", "min_s", "max_s")]
        agg = self.summary()
        for name in sorted(agg, key=lambda n: -agg[n]["total"]):
            c = agg[name]
            rows.append((name, str(c["count"]), f"{c['total']:.6f}",
                         f"{c['mean']:.6f}", f"{c['min']:.6f}",
                         f"{c['max']:.6f}"))
        return text_table(rows)


def _jsonable(v):
    try:
        json.dumps(v)
        return v
    except TypeError:
        return repr(v)
