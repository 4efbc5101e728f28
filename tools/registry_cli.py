#!/usr/bin/env python
"""Operational CLI: inspect and maintain a model registry.

Subcommands over a :class:`repro.registry.ModelRegistry` root:

* ``list`` — one line per version: status, step, parent, weights digest,
  gated skill aggregates when a scorecard is attached;
* ``show`` — full metadata for one version: artifacts, lineage chain,
  transition history, scorecard summary;
* ``gc`` — delete unreferenced blobs (``--dry-run`` to preview), then
  re-verify every referenced blob's content digest.

Usage::

    python tools/registry_cli.py --root /models/registry list
    python tools/registry_cli.py --root /models/registry show v0002
    python tools/registry_cli.py --root /models/registry gc --dry-run
    python tools/registry_cli.py --root /models/registry list --json

Exits non-zero when ``show`` names an unknown version or ``gc``'s
post-collection verify finds a corrupted blob.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def _summary_text(scorecard: dict | None) -> str:
    if not scorecard or not scorecard.get("summary"):
        return "no scorecard"
    return " ".join(f"{k}={v:.4g}"
                    for k, v in sorted(scorecard["summary"].items()))


def cmd_list(registry, args) -> int:
    rows = [registry.get(v) for v in registry.versions()]
    if args.json:
        print(json.dumps({"root": registry.root,
                          "stats": registry.stats(),
                          "versions": [r.to_dict() for r in rows]},
                         indent=2, sort_keys=True))
        return 0
    if not rows:
        print(f"empty registry at {registry.root}")
        return 0
    for r in rows:
        live = "*" if r.status == "live" else " "
        print(f"{live} {r.version:<12} {r.status:<12}"
              f" parent {r.parent or '-':<12} {r.weights_digest[:12]}  "
              f"{_summary_text(r.scorecard)}")
    stats = registry.stats()
    print(f"{stats['versions']} version(s), {stats['blobs']} blob(s), "
          f"{stats['blob_bytes']:,} bytes")
    return 0


def cmd_show(registry, args) -> int:
    from repro.registry import RegistryError
    try:
        record = registry.get(args.version)
        chain = registry.lineage(args.version)
    except RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({**record.to_dict(), "lineage": chain},
                         indent=2, sort_keys=True))
        return 0
    print(f"version  {record.version} ({record.status})")
    print(f"lineage  {' <- '.join(chain)}")
    print(f"source   {record.source or '-'}")
    for name in sorted(record.artifacts):
        print(f"artifact {name:<14} {record.artifacts[name]}")
    print(f"skill    {_summary_text(record.scorecard)}")
    for h in record.history:
        print(f"history  {h['src']} -> {h['dst']}"
              + (f"  ({h['reason']})" if h.get("reason") else ""))
    return 0


def cmd_gc(registry, args) -> int:
    removed = registry.gc(dry_run=args.dry_run)
    findings = registry.verify()
    if args.json:
        print(json.dumps({"dry_run": args.dry_run, "removed": removed,
                          "findings": findings, "stats": registry.stats()},
                         indent=2, sort_keys=True))
    else:
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(removed)} unreferenced blob(s)")
        for digest in removed:
            print(f"  {digest[:16]}")
        for finding in findings:
            print(f"CORRUPT {finding}", file=sys.stderr)
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="registry root directory")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="one line per registered version")
    show = sub.add_parser("show", help="full metadata for one version")
    show.add_argument("version")
    gc = sub.add_parser("gc", help="collect unreferenced blobs + verify")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    args = parser.parse_args(argv)

    from repro.registry import ModelRegistry
    registry = ModelRegistry(args.root)
    return {"list": cmd_list, "show": cmd_show,
            "gc": cmd_gc}[args.command](registry, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
