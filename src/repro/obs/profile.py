"""Global observability state + zero-cost profiling hooks.

Tracing/metrics are **off by default**.  Instrumented call sites go
through the hooks here, which are strict no-ops while disabled:

* :func:`span` returns a shared null context manager — no
  :class:`~repro.obs.trace.Span` is allocated, no clock is read;
* :func:`count` / :func:`gauge` / :func:`observe` book into the active
  registry and return at once when there is none.  *Writers call a hook,
  readers get the registry*: :func:`metrics` returns ``None`` while
  dark, for the checks and dashboards that read, and for the rare
  writer that must skip a derived value (the gradient norm);
* :func:`record_event` drops the event on the floor (no
  :class:`~repro.obs.flight.Event` is allocated) while no flight
  recorder is installed, and :func:`health` returns ``None`` so the
  online detectors cost nothing while monitoring is off.

Enable globally with :func:`enable`, or scoped with ``with observed() as
(tracer, registry): ...``.  The *active* health layer (flight recorder +
detectors, see :mod:`repro.obs.health`) is a separate opt-in on top:
:func:`enable_health` / :func:`disable_health`, or everything at once
with ``with monitored() as m: ...``.  The hot-path contract is verified
by ``tests/obs/test_overhead.py``: with tracing disabled, instrumented
code paths produce bit-identical numerics and allocate zero span (and
event) objects.
"""

from __future__ import annotations

from typing import NamedTuple

from .flight import FlightRecorder
from .health import HealthMonitor
from .metrics import _DEFAULT_BUCKETS, MetricsRegistry
from .trace import Tracer

__all__ = ["enable", "disable", "observed", "get_tracer",
           "metrics", "span", "count", "gauge", "observe",
           "enable_health", "disable_health", "health", "flight",
           "record_event", "monitored", "MonitoredSession"]

_tracer: Tracer | None = None
_registry: MetricsRegistry | None = None
_flight: FlightRecorder | None = None
_health: HealthMonitor | None = None


def enable(tracer: Tracer | None = None,
           registry: MetricsRegistry | None = None
           ) -> tuple[Tracer, MetricsRegistry]:
    """Turn instrumentation on; returns the active (tracer, registry)."""
    global _tracer, _registry
    _tracer = tracer if tracer is not None else (_tracer or Tracer())
    _registry = registry if registry is not None \
        else (_registry or MetricsRegistry())
    return _tracer, _registry


def disable() -> None:
    """Turn instrumentation off (recorded data is dropped).  Also turns
    the health layer off — "fully dark" is one call."""
    global _tracer, _registry
    _tracer = None
    _registry = None
    disable_health()


def get_tracer() -> Tracer | None:
    """The active tracer, or ``None`` while disabled."""
    return _tracer


def metrics() -> MetricsRegistry | None:
    """The active metrics registry, or ``None`` while disabled."""
    return _registry


# Hook parameters are positional-only: a label may be called ``name``.
def count(name: str, help: str = "", value: float = 1, /, **labels) -> None:
    """Add ``value`` to a counter while enabled; a no-op otherwise."""
    registry = _registry
    if registry is not None:
        registry.counter(name, help).inc(value, **labels)


def gauge(name: str, help: str, value: float, /, **labels) -> None:
    """Set a gauge while enabled; a no-op otherwise."""
    registry = _registry
    if registry is not None:
        registry.gauge(name, help).set(value, **labels)


def observe(name: str, help: str, value: float, /, *,
            buckets: tuple[float, ...] | None = None, **labels) -> None:
    """Add ``value`` to a histogram while enabled; a no-op otherwise."""
    registry = _registry
    if registry is not None:
        registry.histogram(name, help, buckets or _DEFAULT_BUCKETS) \
            .observe(value, **labels)


# -- active health layer (flight recorder + online detectors) ------------------
def enable_health(monitor: HealthMonitor | None = None,
                  recorder: FlightRecorder | None = None,
                  clock=None) -> tuple[HealthMonitor, FlightRecorder]:
    """Install the flight recorder and health monitor (idempotent: an
    existing instance is kept unless an explicit one is passed)."""
    global _flight, _health
    _flight = recorder if recorder is not None \
        else (_flight or FlightRecorder(clock=clock))
    _health = monitor if monitor is not None \
        else (_health or HealthMonitor(clock=clock))
    return _health, _flight


def disable_health() -> None:
    """Remove the health monitor and flight recorder."""
    global _flight, _health
    _flight = None
    _health = None


def health() -> HealthMonitor | None:
    """The active health monitor, or ``None`` while disabled."""
    return _health


def flight() -> FlightRecorder | None:
    """The active flight recorder, or ``None`` while disabled."""
    return _flight


def record_event(kind: str, subsystem: str = "repro",
                 severity: str = "info", **data) -> None:
    """Record a flight event while enabled; a strict no-op otherwise."""
    recorder = _flight
    if recorder is not None:
        recorder.record(kind, subsystem=subsystem, severity=severity,
                        **data)


class MonitoredSession(NamedTuple):
    """What :class:`monitored` yields."""

    tracer: Tracer
    registry: MetricsRegistry
    monitor: HealthMonitor
    recorder: FlightRecorder


class observed:
    """Scoped enablement::

        with observed() as (tracer, registry):
            trainer.fit(10)
        print(tracer.summary_table())

    Restores the previous global state on exit (including "disabled").
    """

    def __enter__(self) -> tuple[Tracer, MetricsRegistry]:
        self._saved = (_tracer, _registry)
        return enable(Tracer(), MetricsRegistry())

    def __exit__(self, *exc) -> None:
        global _tracer, _registry
        _tracer, _registry = self._saved
        return None


class monitored:
    """Scoped full-stack enablement: tracing + metrics + flight recorder
    + health monitor::

        with monitored() as m:
            trainer.fit(100)
        print(m.monitor.alerts.summary())
        m.recorder.dump("postmortem.jsonl")

    Restores the previous global state (of all four) on exit.
    """

    def __init__(self, clock=None):
        self._clock = clock

    def __enter__(self) -> MonitoredSession:
        self._saved = (_tracer, _registry, _flight, _health)
        clock = self._clock
        pair = enable(Tracer(clock=clock), MetricsRegistry())
        triple = enable_health(HealthMonitor(clock=clock),
                               FlightRecorder(clock=clock))
        return MonitoredSession(pair[0], pair[1], triple[0], triple[1])

    def __exit__(self, *exc) -> None:
        global _tracer, _registry, _flight, _health
        _tracer, _registry, _flight, _health = self._saved
        return None


class _NullScope:
    """Shared do-nothing context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> None:
        return None

_NULL = _NullScope()


def span(name: str, track: str = "main", category: str | None = None,
         **attrs):
    """A live tracer span while enabled; the shared null scope otherwise."""
    if _tracer is None:
        return _NULL
    return _tracer.span(name, track=track, category=category, **attrs)
