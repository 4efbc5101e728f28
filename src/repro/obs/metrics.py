"""Metrics: labeled counters, gauges, and histograms in a registry.

Dependency-free (stdlib only).  The design mirrors the usual
Prometheus-style client split:

* a :class:`Counter` only goes up (bytes moved, steps taken);
* a :class:`Gauge` is a point-in-time value (loss, learning rate);
* a :class:`Histogram` accumulates a distribution into exponential
  buckets (per-metric evaluation seconds, span durations).

Every instrument is *labeled*: ``counter.inc(5, primitive="alltoall",
locality="intra")`` keeps an independent series per label set.  A
:class:`MetricsRegistry` owns the instruments, renders a plain-text table,
and produces JSON-serializable snapshots that merge across registries —
the simulated-cluster analogue of aggregating per-rank telemetry.

An update is a read-modify-write of a series, so every update of a
registry's instruments, and the creation of an instrument, holds the
registry's one lock: threads a caller starts may book into one registry
at once.  Snapshots and loads are the readers' business, after the
join.
"""

from __future__ import annotations

import json
import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "text_table"]

LabelKey = tuple  # tuple of sorted (key, value) pairs


def text_table(rows: list[tuple[str, ...]]) -> str:
    """Plain-text table of string cells, ``rows[0]`` the header."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    rule = tuple("-" * w for w in widths)
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in (rows[0], rule, *rows[1:]))


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted(labels.items()))


def _label_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key) if key else "-"


class Counter:
    """Monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.series: dict[LabelKey, float] = {}
        self.lock = threading.Lock()    # its registry's, once registered

    def inc(self, value: float = 1.0, /, **labels) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self.lock:
            self.series[key] = self.series.get(key, 0) + value

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0)

    def total(self, **labels) -> float:
        """Sum over every series whose labels include ``labels``."""
        want = set(labels.items())
        return sum(v for k, v in self.series.items() if want <= set(k))

    # -- snapshot ----------------------------------------------------------
    def snapshot(self) -> dict:
        return {"kind": self.kind, "help": self.help,
                "series": [[list(map(list, k)), v]
                           for k, v in sorted(self.series.items())]}

    def load(self, snap: dict, merge: bool = False) -> None:
        for raw_key, v in snap["series"]:
            key = tuple(tuple(kv) for kv in raw_key)
            self.series[key] = (self.series.get(key, 0) + v) if merge else v


class Gauge(Counter):
    """Point-in-time value per label set (last write wins; merge keeps the
    incoming value, matching "most recent snapshot" semantics)."""

    kind = "gauge"

    def set(self, value: float, /, **labels) -> None:
        key = _label_key(labels)
        with self.lock:
            self.series[key] = float(value)

    def inc(self, value: float = 1.0, /, **labels) -> None:
        key = _label_key(labels)
        with self.lock:
            self.series[key] = self.series.get(key, 0) + value

    def load(self, snap: dict, merge: bool = False) -> None:
        for raw_key, v in snap["series"]:
            self.series[tuple(tuple(kv) for kv in raw_key)] = v


#: Default histogram buckets: exponential, 1 µs .. ~100 s in decades.
_DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-6, 3))


class Histogram:
    """Distribution per label set: count / sum / min / max + bucket counts.

    Buckets are upper bounds (``le``); an implicit +inf bucket catches the
    rest.  Exponential defaults suit durations in seconds.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, buckets: tuple[float, ...]):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.series: dict[LabelKey, dict] = {}
        self.lock = threading.Lock()    # its registry's, once registered

    def _cell(self, key: LabelKey) -> dict:
        if key not in self.series:
            self.series[key] = {"count": 0, "sum": 0.0,
                                "min": math.inf, "max": -math.inf,
                                "bucket_counts": [0] * (len(self.buckets) + 1)}
        return self.series[key]

    def observe(self, value: float, /, **labels) -> None:
        key = _label_key(labels)
        bucket = next((i for i, le in enumerate(self.buckets) if value <= le),
                      len(self.buckets))
        with self.lock:
            cell = self._cell(key)
            cell["count"] += 1
            cell["sum"] += value
            cell["min"] = min(cell["min"], value)
            cell["max"] = max(cell["max"], value)
            cell["bucket_counts"][bucket] += 1

    def stats(self, **labels) -> dict:
        """count/sum/mean/min/max for one label set (zeros if unseen)."""
        cell = self.series.get(_label_key(labels))
        if cell is None or cell["count"] == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0}
        return {"count": cell["count"], "sum": cell["sum"],
                "mean": cell["sum"] / cell["count"],
                "min": cell["min"], "max": cell["max"]}

    # -- snapshot ----------------------------------------------------------
    def snapshot(self) -> dict:
        series = []
        for k, cell in sorted(self.series.items()):
            out = dict(cell)
            out["min"] = None if math.isinf(out["min"]) else out["min"]
            out["max"] = None if math.isinf(out["max"]) else out["max"]
            series.append([list(map(list, k)), out])
        return {"kind": self.kind, "help": self.help,
                "buckets": list(self.buckets), "series": series}

    def load(self, snap: dict, merge: bool = False) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError(f"bucket mismatch for histogram {self.name!r}")
        for raw_key, incoming in snap["series"]:
            key = tuple(tuple(kv) for kv in raw_key)
            inc = dict(incoming)
            inc["min"] = math.inf if inc["min"] is None else inc["min"]
            inc["max"] = -math.inf if inc["max"] is None else inc["max"]
            if merge and key in self.series:
                cell = self.series[key]
                cell["count"] += inc["count"]
                cell["sum"] += inc["sum"]
                cell["min"] = min(cell["min"], inc["min"])
                cell["max"] = max(cell["max"], inc["max"])
                cell["bucket_counts"] = [
                    a + b for a, b in zip(cell["bucket_counts"],
                                          inc["bucket_counts"])]
            else:
                self.series[key] = {**inc,
                                    "bucket_counts": list(inc["bucket_counts"])}


class MetricsRegistry:
    """Owns named instruments; get-or-create accessors keep call sites
    one-liners (``registry.counter("comm.bytes").inc(...)``)."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self.instruments: dict[str, object] = {}
        self.lock = threading.Lock()

    def _get(self, cls, name: str, help: str, **kwargs):
        inst = self.instruments.get(name)
        if inst is None:
            with self.lock:
                inst = self.instruments.get(name)
                if inst is None:
                    inst = cls(name, help, **kwargs)
                    inst.lock = self.lock
                    self.instruments[name] = inst
        if not isinstance(inst, cls) or type(inst) is not cls:
            raise TypeError(f"{name!r} already registered as "
                            f"{type(inst).__name__}")
        elif not inst.help:
            # A reader (``*_check``) may have asked before any writer booked.
            inst.help = help
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = _DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument."""
        return {name: inst.snapshot()
                for name, inst in sorted(self.instruments.items())}

    def load_snapshot(self, snap: dict, merge: bool = False) -> None:
        """Restore (or, with ``merge=True``, accumulate) a snapshot."""
        for name, data in snap.items():
            cls = self._KINDS[data["kind"]]
            kwargs = ({"buckets": tuple(data["buckets"])}
                      if data["kind"] == "histogram" else {})
            self._get(cls, name, data.get("help", ""), **kwargs) \
                .load(data, merge=merge)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    # -- rendering ---------------------------------------------------------
    def as_table(self) -> str:
        """Plain-text table, one row per (instrument, label set)."""
        rows = [("metric", "labels", "value")]
        for name, inst in sorted(self.instruments.items()):
            if isinstance(inst, Histogram):
                for key in sorted(inst.series):
                    s = inst.stats(**dict(key))
                    rows.append((name, _label_str(key),
                                 f"n={s['count']} sum={s['sum']:.6g} "
                                 f"mean={s['mean']:.6g}"))
            else:
                for key, v in sorted(inst.series.items()):
                    rows.append((name, _label_str(key), f"{v:.6g}"))
        return text_table(rows)
