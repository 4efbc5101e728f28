#!/usr/bin/env python
"""CI perf gate: diff benchmark JSON sidecars against committed baselines.

Compares every ``*.json`` file present in *both* the baseline and current
directories, walking the numeric leaves under the ``data`` and ``derived``
top-level keys.  Each leaf is classified by its key name:

* **lower is better** (time/space): key mentions ``ms``, ``bytes``,
  ``seconds``, ``latency``, or ``bubble`` — a regression is the current
  value rising above baseline by more than the tolerance;
* **higher is better** (rates/ratios): key mentions ``speedup``,
  ``throughput``, ``images_per_sec``, ``eff`` (incl. ``ef_sustained`` /
  ``ef_peak`` / ``efficiency``), ``mfu``, ``tflops``, or ``hits`` — a
  regression is the current value falling below baseline;
* anything else is informational and not gated — including ``*_ms_p50`` /
  ``*_ms_p95``: a percentile of absolute wall time on a shared box moves
  with the neighbours, not the code (p95 14 → 80 ms with no code change
  while min-of-N read 12.8 / 13.6).  What gates a timing is its
  ``*_ms_min`` (min-of-N is the noise-robust estimator) and the paired
  ``*_speedup`` ratio; the percentiles stay in the sidecar to be read.

Checks are one-sided: getting *faster* never fails the gate (refresh the
baselines to bank an improvement — see DESIGN.md "Performance").

A gated baseline leaf that the current run no longer emits is a hard
failure (exit 1) — silently skipping it would let a regression hide by
deleting its metric; retire the leaf from the committed baseline
alongside the bench change instead.

Absolute time/space leaves are hardware-dependent, so they take their own
(usually looser) tolerance via ``--tolerance-absolute``; derived ratios
like ``*_speedup`` transfer across machines and stay tight.

Exit status: 0 clean, 1 regressions found, 2 usage/IO error.

Usage::

    python tools/check_bench_regression.py \
        --baseline benchmarks/results --current /tmp/bench-out \
        [--tolerance 0.30] [--tolerance-absolute 1.0]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

#: top-level sidecar keys whose numeric leaves are compared.
GATED_SECTIONS = ("data", "derived")

#: word-level markers (matched against ``_``-separated key parts).
LOWER_IS_BETTER = ("ms", "bytes", "seconds", "latency", "bubble")
HIGHER_IS_BETTER = ("speedup", "throughput", "eff", "ef", "efficiency",
                    "mfu", "tflops", "hits")
#: substring markers for compound names.
HIGHER_SUBSTRINGS = ("images_per_sec", "img_per_s", "per_sec")
#: percentiles of absolute wall time: informational, not gated.
UNGATED_SUFFIXES = ("_ms_p50", "_ms_p95")


@dataclass
class Regression:
    file: str
    path: str
    baseline: float
    current: float
    ratio: float
    direction: str

    def __str__(self) -> str:
        return (f"{self.file}: {self.path}: {self.baseline:g} -> "
                f"{self.current:g} ({self.ratio:+.1%}, worse = "
                f"{self.direction})")


def classify(key: str) -> str | None:
    """``'lower'`` / ``'higher'`` = which direction is *better*, or None
    if the leaf is not gated."""
    parts = key.lower().replace("-", "_").split("_")
    joined = "_".join(parts)
    if joined.endswith(UNGATED_SUFFIXES):
        return None
    if any(marker in parts for marker in LOWER_IS_BETTER):
        return "lower"
    if any(marker in parts for marker in HIGHER_IS_BETTER) \
            or any(s in joined for s in HIGHER_SUBSTRINGS) \
            or "efficiency" in joined:
        return "higher"
    return None


def numeric_leaves(node, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to ``{"a.b.c": value}`` for numeric leaves."""
    leaves: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(numeric_leaves(value, child))
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        leaves[prefix] = float(node)
    return leaves


def gated_leaves(payload: dict) -> dict[str, float]:
    leaves: dict[str, float] = {}
    for section in GATED_SECTIONS:
        if section in payload:
            leaves.update(numeric_leaves(payload[section], section))
    return leaves


def compare_file(name: str, baseline: dict, current: dict,
                 tolerance: float, tolerance_absolute: float
                 ) -> tuple[list[Regression], list[str], int]:
    """Returns ``(regressions, missing_gated_paths, leaves_checked)``.

    A *gated* baseline leaf absent from the current run is a hard
    failure, not a skip: a silently dropped metric is exactly how a
    perf regression escapes the gate (the bench stops emitting the
    number, the gate stops checking it).  Ungated informational leaves
    may come and go freely.
    """
    base_leaves = gated_leaves(baseline)
    cur_leaves = gated_leaves(current)
    regressions: list[Regression] = []
    missing: list[str] = []
    checked = 0
    for path, base in sorted(base_leaves.items()):
        better = classify(path.rsplit(".", 1)[-1])
        if better is None:
            continue
        if path not in cur_leaves:
            missing.append(f"{name}: {path} (baseline {base:g}, gated "
                           f"'{better} is better') missing from the "
                           "current run")
            continue
        if base == 0:
            continue
        checked += 1
        cur = cur_leaves[path]
        delta = (cur - base) / abs(base)
        tol = tolerance_absolute if better == "lower" else tolerance
        worse = delta > tol if better == "lower" else -delta > tol
        if worse:
            regressions.append(Regression(
                file=name, path=path, baseline=base, current=cur,
                ratio=delta, direction="higher" if better == "lower"
                else "lower"))
    return regressions, missing, checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory of committed baseline sidecars")
    parser.add_argument("--current", required=True,
                        help="directory of freshly produced sidecars")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="relative tolerance for ratio/rate leaves "
                             "(default 0.30 = ±30%%)")
    parser.add_argument("--tolerance-absolute", type=float, default=None,
                        help="relative tolerance for absolute time/space "
                             "leaves (hardware-dependent; defaults to "
                             "--tolerance)")
    args = parser.parse_args(argv)
    if args.tolerance_absolute is None:
        args.tolerance_absolute = args.tolerance

    for d in (args.baseline, args.current):
        if not os.path.isdir(d):
            sys.stderr.write(f"check_bench_regression: not a directory: "
                             f"{d}\n")
            return 2

    names = sorted(
        set(n for n in os.listdir(args.baseline) if n.endswith(".json"))
        & set(n for n in os.listdir(args.current) if n.endswith(".json")))
    if not names:
        sys.stderr.write("check_bench_regression: no common *.json "
                         "sidecars to compare\n")
        return 2

    all_regressions: list[Regression] = []
    all_missing: list[str] = []
    total_checked = 0
    for name in names:
        with open(os.path.join(args.baseline, name)) as fh:
            baseline = json.load(fh)
        with open(os.path.join(args.current, name)) as fh:
            current = json.load(fh)
        regressions, missing, checked = compare_file(
            name, baseline, current, args.tolerance,
            args.tolerance_absolute)
        all_regressions.extend(regressions)
        all_missing.extend(missing)
        total_checked += checked

    if all_missing:
        sys.stderr.write("gated baseline leaves missing from the current "
                         "run:\n")
        for item in all_missing:
            sys.stderr.write(f"  {item}\n")
        sys.stderr.write(f"{len(all_missing)} gated leaf/leaves "
                         "disappeared; a bench that stops emitting a "
                         "metric must also retire it from the committed "
                         "baseline (see DESIGN.md).\n")
    if all_regressions:
        sys.stderr.write("benchmark regressions (vs committed baselines):\n")
        for reg in all_regressions:
            sys.stderr.write(f"  {reg}\n")
        sys.stderr.write(f"{len(all_regressions)} regression(s) across "
                         f"{len(names)} file(s); if intentional, refresh "
                         "the baselines (see DESIGN.md).\n")
    if all_regressions or all_missing:
        return 1
    sys.stdout.write(f"check_bench_regression: OK ({total_checked} leaves "
                     f"in {len(names)} files)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
