"""Flight recorder: a bounded ring buffer of typed, structured events.

A crashed 10,080-node run is only debuggable if the last few thousand
things that *happened* — train steps, comm retries and escalations,
serve admissions and rejections, fault injections, checkpoint saves,
fired alerts — survive as structured records.  The
:class:`FlightRecorder` keeps exactly that: a ``deque(maxlen=capacity)``
of :class:`Event` records (oldest events fall off the back, so memory is
bounded no matter how long the run), dumped as JSONL by
``write_events_jsonl(recorder.events(), path)`` of :mod:`repro.obs.export`
(an atomic write, so a crash mid-dump never truncates a previous
post-mortem).

Recording is routed through :func:`repro.obs.profile.record_event`,
which is a strict no-op while the recorder is disabled — the same
zero-cost contract as spans and metrics (``Event.allocated`` counts
constructions the way ``Span.allocated`` does, and the overhead tests
pin it flat while disabled).
"""

from __future__ import annotations

import time
from collections import deque

__all__ = ["Event", "FlightRecorder", "SEVERITIES"]

#: Ordered severities, least to most severe.
SEVERITIES = ("info", "warning", "critical")

#: Events a :class:`FlightRecorder` retains.
CAPACITY = 4096


class Event:
    """One structured flight-recorder record.

    ``Event.allocated`` counts every construction — the overhead tests
    assert it stays flat while recording is disabled.
    """

    __slots__ = ("seq", "ts", "kind", "subsystem", "severity", "data")

    allocated = 0

    def __init__(self, seq: int, ts: float, kind: str, subsystem: str,
                 severity: str = "info", data: dict | None = None):
        Event.allocated += 1
        if severity not in SEVERITIES:
            raise ValueError(f"severity {severity!r}; one of {SEVERITIES}")
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.subsystem = subsystem
        self.severity = severity
        self.data = data or {}

    def to_dict(self) -> dict:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind,
                "subsystem": self.subsystem, "severity": self.severity,
                "data": self.data}

    def __repr__(self) -> str:
        return (f"Event(#{self.seq} {self.kind!r} [{self.severity}] "
                f"@{self.ts:.6f})")


class FlightRecorder:
    """Bounded ring buffer of :class:`Event` records.

    The newest ``CAPACITY`` events are retained; the oldest are discarded
    first (``dropped`` counts how many fell off the back).

    Parameters
    ----------
    clock:
        Injectable timestamp source (a stepping clock makes tests
        deterministic); defaults to ``time.time``.
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else time.time
        self._ring: deque[Event] = deque(maxlen=CAPACITY)
        self._seq = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording ---------------------------------------------------------
    def record(self, kind: str, subsystem: str = "repro",
               severity: str = "info", **data) -> Event:
        """Append one event (evicting the oldest if the ring is full)."""
        event = Event(self._seq, self.clock(), kind, subsystem,
                      severity, data)
        self._seq += 1
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)
        return event

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    # -- querying ----------------------------------------------------------
    def events(self, kind: str | None = None, subsystem: str | None = None,
               min_severity: str = "info") -> list[Event]:
        """Retained events, oldest first, optionally filtered."""
        floor = SEVERITIES.index(min_severity)
        return [e for e in self._ring
                if (kind is None or e.kind == kind)
                and (subsystem is None or e.subsystem == subsystem)
                and SEVERITIES.index(e.severity) >= floor]

    def tail(self, n: int = 10) -> list[Event]:
        """The ``n`` most recent events, oldest of them first."""
        return list(self._ring)[-n:]
