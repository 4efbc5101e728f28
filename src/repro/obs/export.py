"""Exporters: Prometheus text format, JSONL events, JSON snapshots.

The registry's native interchange format is its JSON snapshot
(:meth:`~repro.obs.MetricsRegistry.snapshot`); this module renders the
same data in the formats the outside world scrapes and ships:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` plus one sample per labeled series; counters
  get the conventional ``_total`` suffix, histograms expand into
  cumulative ``_bucket{le=...}`` samples with ``_sum``/``_count``).
  Output is deterministic: instruments sort by name, series by label
  set, so golden tests can pin the exact text;
* :func:`events_jsonl` — flight-recorder events (or any ``to_dict``-able
  records) as one JSON object per line;
* the ``write_*`` variants — the same renders written **atomically**
  (tmp + fsync + rename via the :mod:`repro.resilience` helper), so a
  crash mid-export never leaves a truncated artifact where a good one
  used to be.

Metric names keep their canonical dotted spelling everywhere else in the
repo (``train.loss``); only this exporter flattens dots to underscores,
because the Prometheus grammar requires it.
"""

from __future__ import annotations

import json
import math

from ..resilience.atomic import atomic_write
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["prometheus_text", "write_prometheus", "events_jsonl",
           "write_events_jsonl", "write_metrics_json"]


def _sanitize(name: str) -> str:
    """Dotted metric name → Prometheus-legal name."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return "_" + out if out[:1].isdigit() else out


def _escape(value) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(key, extra: list[tuple[str, str]] | None = None) -> str:
    pairs = [(k, str(v)) for k, v in key] + list(extra or [])
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in pairs) + "}"


def _fmt(value: float) -> str:
    as_float = float(value)
    if not math.isfinite(as_float):  # the text format's spellings
        return "NaN" if math.isnan(as_float) else (
            "+Inf" if as_float > 0 else "-Inf")
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in the text exposition format."""
    lines: list[str] = []
    for name in sorted(registry.instruments):
        inst = registry.instruments[name]
        pname = _sanitize(name)
        if inst.help:
            lines.append(f"# HELP {pname} {_escape(inst.help)}")
        if isinstance(inst, Gauge):  # Gauge subclasses Counter: check first
            lines.append(f"# TYPE {pname} gauge")
            for key in sorted(inst.series):
                lines.append(f"{pname}{_labels(key)} "
                             f"{_fmt(inst.series[key])}")
        elif isinstance(inst, Counter):
            lines.append(f"# TYPE {pname} counter")
            for key in sorted(inst.series):
                lines.append(f"{pname}_total{_labels(key)} "
                             f"{_fmt(inst.series[key])}")
        elif isinstance(inst, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            for key in sorted(inst.series):
                cell = inst.series[key]
                cumulative = 0
                for le, count in zip(inst.buckets,
                                     cell["bucket_counts"]):
                    cumulative += count
                    lines.append(
                        f"{pname}_bucket"
                        f"{_labels(key, [('le', _fmt(le))])} "
                        f"{cumulative}")
                cumulative += cell["bucket_counts"][-1]
                lines.append(f"{pname}_bucket"
                             f"{_labels(key, [('le', '+Inf')])} "
                             f"{cumulative}")
                lines.append(f"{pname}_sum{_labels(key)} "
                             f"{_fmt(cell['sum'])}")
                lines.append(f"{pname}_count{_labels(key)} "
                             f"{cell['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def events_jsonl(events) -> str:
    """Events (anything with ``to_dict``) as one JSON object per line."""
    return "".join(json.dumps(e.to_dict()) + "\n" for e in events)


# -- atomic writers ------------------------------------------------------------
def write_prometheus(registry: MetricsRegistry, path: str) -> str:
    """Atomically write :func:`prometheus_text`; returns ``path``."""
    return atomic_write(path, prometheus_text(registry))


def write_events_jsonl(events, path: str) -> str:
    """Atomically write :func:`events_jsonl`; returns ``path``."""
    return atomic_write(path, events_jsonl(events))


def write_metrics_json(registry: MetricsRegistry, path: str) -> str:
    """Atomically write the registry's JSON snapshot, indented; returns
    ``path``."""
    return atomic_write(path, registry.to_json(indent=2))
