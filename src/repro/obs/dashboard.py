"""Terminal dashboard: one text panel over the whole telemetry stack.

:func:`render_dashboard` pulls whatever is available — metrics registry,
tracer, health monitor, flight recorder — and renders a deterministic
plain-text panel (train / serve / resilience / kernels sections, fired
alerts, the flight-recorder tail).  Deterministic means: section order,
row order, and number formatting are all stable, so a render produced
under a stepping clock can be pinned by a golden test and a
render produced in production can be diffed across scrapes.

``tools/obs_dashboard.py`` wraps this as a CLI over exported snapshot /
flight files; :mod:`examples.monitor_training` renders it live.
"""

from __future__ import annotations

from .metrics import MetricsRegistry, _label_str

__all__ = ["render_dashboard"]

_RULE_WIDTH = 64


def _rule(title: str) -> str:
    pad = _RULE_WIDTH - len(title) - 4
    return f"-- {title} " + "-" * max(pad, 2)


def _num(value: float) -> str:
    """An integral value as an int, anything else (NaN and ±inf too) in
    ``%.6g``."""
    as_float = float(value)
    if abs(as_float) < 1e15 and as_float == int(as_float):
        return str(int(as_float))
    return f"{as_float:.6g}"


def _value(inst, key) -> str:
    return _num(inst.series[key])


def _hist_stats(inst, key) -> str:
    s = inst.stats(**dict(key))
    return f"n={s['count']} mean={s['mean']:.6g} max={s['max']:.6g}"


def _rows(registry: MetricsRegistry, name: str, cell) -> list[str]:
    """One row per label set of instrument ``name``: its labels, then
    ``cell(instrument, key)``."""
    inst = registry.instruments.get(name)
    if inst is None or not getattr(inst, "series", None):
        return []
    return [f"  {name}  {_label_str(key):<28s} {cell(inst, key)}"
            for key in sorted(inst.series)]


_SECTIONS = (
    ("train", ("train.steps", "train.loss", "train.grad_norm",
               "train.skipped_steps", "train.checkpoints"),
     ("train.loss_hist",)),
    ("serve", ("serve.requests", "serve.queue_depth", "serve.slo_misses",
               "serve.live_workers", "serve.worker_failovers"),
     ("serve.latency_s",)),
    ("resilience", ("resilience.faults_injected", "comm.faults_detected",
                    "resilience.recoveries", "resilience.dead_ranks"),
     ("comm.straggler_s",)),
    ("obs", ("obs.alerts",), ()),
)


def _plan_cache_rows(stats: dict | None) -> list[str]:
    if stats is None:
        from ..kernels import plan_cache_stats
        stats = plan_cache_stats()
    rows = []
    for name in sorted(stats):
        c = stats[name]
        lookups = c["hits"] + c["misses"]
        if lookups == 0:
            continue
        rate = c["hits"] / lookups
        rows.append(f"  {name:<34s} size={c['size']}/{c['maxsize']} "
                    f"hit_rate={rate:.2f} ({lookups} lookups)")
    return rows


def render_dashboard(registry: MetricsRegistry | None = None,
                     recorder=None, plan_caches: dict | None = None,
                     tail: int = 8) -> str:
    """Render the panel from the given registry and flight recorder and
    the globally enabled tracer and health monitor.

    A registry or recorder left ``None`` falls back to the globally
    enabled instance; a section is omitted if there is none.  Pass
    ``plan_caches={}`` to suppress the kernel-cache section (e.g. when
    rendering from exported files on another machine).
    """
    from .profile import flight, get_tracer, health, metrics
    registry = registry if registry is not None else metrics()
    tracer = get_tracer()
    monitor = health()
    recorder = recorder if recorder is not None else flight()

    lines = ["=" * _RULE_WIDTH,
             "repro health dashboard".center(_RULE_WIDTH).rstrip(),
             "=" * _RULE_WIDTH]

    if registry is not None:
        for title, counters, hists in _SECTIONS:
            rows: list[str] = []
            for name in counters:
                rows.extend(_rows(registry, name, _value))
            for name in hists:
                rows.extend(_rows(registry, name, _hist_stats))
            if rows:
                lines.append(_rule(title))
                lines.extend(rows)

    cache_rows = _plan_cache_rows(plan_caches)
    if cache_rows:
        lines.append(_rule("kernel plan caches"))
        lines.extend(cache_rows)

    if monitor is not None:
        alerts = monitor.alerts.alerts
        lines.append(_rule(f"alerts ({len(alerts)})"))
        if alerts:
            for a in alerts:
                lab = ",".join(f"{k}={v}" for k, v in a.labels)
                lines.append(f"  [{a.severity:<8s}] {a.kind}"
                             + (f"{{{lab}}}" if lab else "")
                             + f" x{a.count}  {a.message}")
        else:
            lines.append("  (none fired)")

    if recorder is not None and len(recorder):
        lines.append(_rule(f"flight tail ({len(recorder)} events, "
                           f"{recorder.dropped} dropped)"))
        for e in recorder.tail(tail):
            lines.append(f"  #{e.seq:<5d} {e.kind:<20s} "
                         f"[{e.severity}] {e.subsystem}")

    if tracer is not None and tracer.spans:
        lines.append(_rule("spans"))
        lines.extend("  " + row
                     for row in tracer.summary_table().splitlines())

    lines.append("=" * _RULE_WIDTH)
    return "\n".join(lines) + "\n"
