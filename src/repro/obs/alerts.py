"""Typed alerts with severities, dedup, and cooldown.

An :class:`Alert` is what a health detector *concluded* (as opposed to a
flight-recorder :class:`~repro.obs.flight.Event`, which is what merely
*happened*).  The :class:`AlertManager` is the single funnel every
detector fires through; it

* **dedups** — repeated firings of the same ``(kind, labels)`` within the
  cooldown window update the existing alert's ``count``/``last_ts``
  instead of spamming a new record (the classic alert-storm defence);
* **routes** — each *new* alert (or re-fire past its cooldown) is
  recorded into the flight recorder (kind ``alert``) and the metrics
  registry (``obs.alerts`` counter labeled by kind/severity), so a
  post-mortem dump and a Prometheus scrape both carry the alert history
  without any extra wiring at the detector call sites.

The clock is injectable, so cooldown behaviour is deterministic under a
stepping clock in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .flight import SEVERITIES

__all__ = ["Alert", "AlertManager"]

#: Window within which repeated firings of one ``(kind, labels)`` only
#: bump the existing alert.  A firing *after* the window re-routes (flight
#: event + counter) but still accumulates into the same :class:`Alert`.
COOLDOWN_S = 60.0


@dataclass(eq=False)
class Alert:
    """One deduplicated health conclusion."""

    kind: str
    severity: str
    subsystem: str
    message: str
    labels: tuple = ()  # sorted (key, value) pairs
    first_ts: float = 0.0
    last_ts: float = 0.0
    count: int = 1
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "subsystem": self.subsystem, "message": self.message,
                "labels": dict(self.labels), "first_ts": self.first_ts,
                "last_ts": self.last_ts, "count": self.count,
                "data": self.data}

    def __repr__(self) -> str:
        lab = ",".join(f"{k}={v}" for k, v in self.labels)
        return (f"Alert({self.kind!r} [{self.severity}]"
                + (f" {lab}" if lab else "") + f" x{self.count})")


class AlertManager:
    """Dedup/cooldown funnel for health alerts.

    Parameters
    ----------
    clock:
        Injectable timestamp source (defaults to ``time.time``).
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else time.time
        self.alerts: list[Alert] = []
        self._by_key: dict[tuple, Alert] = {}
        self.fired = 0        # every .fire() call
        self.routed = 0       # firings that escaped dedup/cooldown

    def __len__(self) -> int:
        return len(self.alerts)

    # -- firing ------------------------------------------------------------
    def fire(self, kind: str, severity: str, subsystem: str, message: str,
             data: dict | None = None, **labels) -> Alert:
        """Raise (or re-raise) an alert; returns the deduplicated record."""
        if severity not in SEVERITIES:
            raise ValueError(f"severity {severity!r}; one of {SEVERITIES}")
        now = self.clock()
        key = (kind, tuple(sorted(labels.items())))
        self.fired += 1
        alert = self._by_key.get(key)
        if alert is not None:
            within_cooldown = (now - alert.last_ts) < COOLDOWN_S
            alert.count += 1
            alert.last_ts = now
            alert.message = message
            if data:
                alert.data.update(data)
            if within_cooldown:
                return alert
        else:
            alert = Alert(kind=kind, severity=severity, subsystem=subsystem,
                          message=message, labels=key[1], first_ts=now,
                          last_ts=now, data=dict(data or {}))
            self._by_key[key] = alert
            self.alerts.append(alert)
        self._route(alert)
        return alert

    def _route(self, alert: Alert) -> None:
        """Book one (non-deduped) firing into flight + metrics."""
        # Lazy import: profile imports this module at load time.
        from .profile import count, record_event
        self.routed += 1
        record_event("alert", subsystem=alert.subsystem,
                     severity=alert.severity, alert_kind=alert.kind,
                     message=alert.message, labels=dict(alert.labels),
                     count=alert.count)
        count("obs.alerts", "health alerts routed (post-dedup)", 1,
              kind=alert.kind, severity=alert.severity,
              subsystem=alert.subsystem)

    # -- querying ----------------------------------------------------------
    def kinds(self) -> set[str]:
        return {a.kind for a in self.alerts}

    def summary(self) -> dict:
        """JSON-friendly rollup (stable ordering by first firing)."""
        return {"total_firings": self.fired, "routed": self.routed,
                "alerts": [a.to_dict() for a in self.alerts]}

    def clear(self) -> None:
        self.alerts.clear()
        self._by_key.clear()
        self.fired = self.routed = 0
