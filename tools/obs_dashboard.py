#!/usr/bin/env python
"""Render the repro health dashboard from exported telemetry files.

Offline companion to :func:`repro.obs.render_dashboard`: point it at a
metrics snapshot (the registry's JSON, e.g. from
``repro.obs.write_metrics_json``) and/or a flight-recorder JSONL dump
and get the same terminal panel a live session renders — useful for
reading a CI artifact or a crash post-mortem without the process that
produced it.

Usage::

    python tools/obs_dashboard.py --metrics metrics.json
    python tools/obs_dashboard.py --metrics a.json b.json \\
        --flight flight.jsonl --tail 20 --out dashboard.txt

Multiple ``--metrics`` files are merged (per-rank snapshots aggregate
the way ``MetricsRegistry.load_snapshot(merge=True)`` does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.obs import FlightRecorder, MetricsRegistry, render_dashboard


def load_registry(paths: list[str]) -> MetricsRegistry:
    registry = MetricsRegistry()
    for path in paths:
        with open(path) as fh:
            registry.load_snapshot(json.load(fh), merge=True)
    return registry


def load_flight(path: str) -> FlightRecorder:
    recorder = FlightRecorder()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            recorder.record(event["kind"],
                            subsystem=event.get("subsystem", "repro"),
                            severity=event.get("severity", "info"),
                            **event.get("data", {}))
    return recorder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="render the repro health dashboard from exports")
    parser.add_argument("--metrics", nargs="*", default=[],
                        help="registry JSON snapshot(s); merged")
    parser.add_argument("--flight", default=None,
                        help="flight-recorder JSONL dump")
    parser.add_argument("--tail", type=int, default=8,
                        help="flight events to show (default 8)")
    parser.add_argument("--out", default=None,
                        help="write the panel here instead of stdout")
    args = parser.parse_args(argv)
    if not args.metrics and not args.flight:
        parser.error("need --metrics and/or --flight")

    registry = load_registry(args.metrics) if args.metrics else None
    recorder = load_flight(args.flight) if args.flight else None
    panel = render_dashboard(registry=registry, recorder=recorder,
                             plan_caches={}, tail=args.tail)
    if args.out:
        from repro.resilience import atomic_write
        atomic_write(args.out, panel)
    else:
        sys.stdout.write(panel)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
