"""Scoped observability state + zero-cost profiling hooks.

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

The active sinks are context variables (:mod:`repro.scoped`): a thread
sees its own.  Enable in the calling context with :func:`enable`, or for
a block with ``with observed() as (tracer, registry): ...``.  The
*active* health layer (flight recorder + detectors, see
:mod:`repro.obs.health`) is a separate opt-in on top:
:func:`enable_health` / :func:`disable_health`, or everything at once
with ``with monitored() as m: ...``.  The hot-path contract is verified
by ``tests/obs/test_overhead.py``: with tracing disabled, instrumented
code paths produce bit-identical numerics and allocate zero span (and
event) objects.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import NamedTuple

from .flight import FlightRecorder
from .health import HealthMonitor
from .metrics import _DEFAULT_BUCKETS, MetricsRegistry
from .trace import Tracer

__all__ = ["enable", "disable", "observed", "get_tracer",
           "metrics", "span", "count", "gauge", "observe",
           "enable_health", "disable_health", "health", "flight",
           "record_event", "monitored", "MonitoredSession"]

_tracer = ContextVar("obs_tracer", default=None)
_registry = ContextVar("obs_registry", default=None)
_flight = ContextVar("obs_flight", default=None)
_health = ContextVar("obs_health", default=None)


def _install(var: ContextVar, make):
    """Keep what ``var`` holds, else set it to ``make()``; returns the
    value it holds."""
    value = var.get()
    if value is None:
        value = make()
        var.set(value)
    return value


def enable() -> tuple[Tracer, MetricsRegistry]:
    """Turn instrumentation on (idempotent: an existing instance is kept);
    returns the active (tracer, registry)."""
    return _install(_tracer, Tracer), _install(_registry, MetricsRegistry)


def disable() -> None:
    """Turn instrumentation off (recorded data is dropped).  Also turns
    the health layer off — "fully dark" is one call."""
    _tracer.set(None)
    _registry.set(None)
    disable_health()


def get_tracer() -> Tracer | None:
    """The active tracer, or ``None`` while disabled."""
    return _tracer.get()


def metrics() -> MetricsRegistry | None:
    """The active metrics registry, or ``None`` while disabled."""
    return _registry.get()


# Hook parameters are positional-only: a label may be called ``name``.
def count(name: str, help: str = "", value: float = 1, /, **labels) -> None:
    """Add ``value`` to a counter while enabled; a no-op otherwise."""
    registry = _registry.get()
    if registry is not None:
        registry.counter(name, help).inc(value, **labels)


def gauge(name: str, help: str, value: float, /, **labels) -> None:
    """Set a gauge while enabled; a no-op otherwise."""
    registry = _registry.get()
    if registry is not None:
        registry.gauge(name, help).set(value, **labels)


def observe(name: str, help: str, value: float, /, *,
            buckets: tuple[float, ...] | None = None, **labels) -> None:
    """Add ``value`` to a histogram while enabled; a no-op otherwise."""
    registry = _registry.get()
    if registry is not None:
        registry.histogram(name, help, buckets or _DEFAULT_BUCKETS) \
            .observe(value, **labels)


# -- active health layer (flight recorder + online detectors) ------------------
def enable_health() -> tuple[HealthMonitor, FlightRecorder]:
    """Install the flight recorder and health monitor (idempotent: an
    existing instance is kept)."""
    recorder = _install(_flight, FlightRecorder)
    monitor = _install(_health, HealthMonitor)
    return monitor, recorder


def disable_health() -> None:
    """Remove the health monitor and flight recorder."""
    _flight.set(None)
    _health.set(None)


def health() -> HealthMonitor | None:
    """The active health monitor, or ``None`` while disabled."""
    return _health.get()


def flight() -> FlightRecorder | None:
    """The active flight recorder, or ``None`` while disabled."""
    return _flight.get()


def record_event(kind: str, subsystem: str = "repro",
                 severity: str = "info", **data) -> None:
    """Record a flight event while enabled; a strict no-op otherwise."""
    recorder = _flight.get()
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

    Restores the previous state on exit (including "disabled").
    """

    _VARS = (_tracer, _registry)

    def __enter__(self) -> tuple[Tracer, MetricsRegistry]:
        return self._set(Tracer(), MetricsRegistry())

    def _set(self, *values) -> tuple:
        self._tokens = [var.set(value)
                        for var, value in zip(self._VARS, values)]
        return values

    def __exit__(self, *exc) -> None:
        for var, token in zip(self._VARS, self._tokens):
            var.reset(token)
        return None


class monitored(observed):
    """Scoped full-stack enablement: tracing + metrics + flight recorder
    + health monitor::

        with monitored() as m:
            trainer.fit(100)
        print(m.monitor.alerts.summary())
        write_events_jsonl(m.recorder.events(), "postmortem.jsonl")

    Restores the previous state (of all four) on exit.
    """

    _VARS = (_tracer, _registry, _health, _flight)

    def __init__(self, clock=None):
        self._clock = clock

    def __enter__(self) -> MonitoredSession:
        clock = self._clock
        return MonitoredSession(*self._set(
            Tracer(clock=clock), MetricsRegistry(),
            HealthMonitor(clock=clock), FlightRecorder(clock=clock)))


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
    tracer = _tracer.get()
    if tracer is None:
        return _NULL
    return tracer.span(name, track=track, category=category, **attrs)
