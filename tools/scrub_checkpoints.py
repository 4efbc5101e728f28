#!/usr/bin/env python
"""Operational CLI: CRC-scrub retained sharded checkpoints.

Walks every checkpoint generation under ``--root``, re-verifies each
array against the per-array CRC32s in its manifest, and prints one line
per generation (plus one per finding).  Exits non-zero when any
generation is corrupt — wire it into a cron/CI job as the "background
scrub" an exascale run would schedule against its checkpoint volume.

Usage::

    python tools/scrub_checkpoints.py --root /ckpt/run42
    python tools/scrub_checkpoints.py --root /ckpt/run42 --keep 3
    python tools/scrub_checkpoints.py --root /ckpt/run42 --json

``--keep N`` applies N-replica retention *after* the scrub (never
pruning below N generations); ``--json`` emits a machine-readable
report instead of text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True,
                        help="checkpoint root (step-<n> generations)")
    parser.add_argument("--keep", type=int, default=0, metavar="N",
                        help="after scrubbing, retain only the newest N "
                             "generations (0 = keep all)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    args = parser.parse_args(argv)

    from repro.resilience.scrub import scrub_checkpoints
    from repro.train import prune_checkpoints

    reports = scrub_checkpoints(args.root)
    pruned = prune_checkpoints(args.root, args.keep) if args.keep else []
    corrupt = [r for r in reports if not r.ok]
    # the generation a resume would restore: newest verified, not pruned
    latest = next((r.directory for r in reversed(reports)
                   if r.ok and r.directory not in pruned), None)

    if args.json:
        payload = {
            "root": args.root,
            "generations": len(reports),
            "corrupt": len(corrupt),
            "latest_valid": latest,
            "pruned": pruned,
            "reports": [{
                "directory": r.directory, "ok": r.ok,
                "n_arrays": r.n_arrays, "nbytes": r.nbytes,
                "findings": [{"shard": f.shard, "array": f.array,
                              "reason": f.reason} for f in r.findings],
            } for r in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not reports:
            print(f"no checkpoint generations under {args.root}")
        for report in reports:
            print(report.render())
        for directory in pruned:
            print(f"pruned {directory}")
        if corrupt:
            print(f"{len(corrupt)} corrupt generation(s); "
                  f"latest valid: {latest or 'NONE'}", file=sys.stderr)
    return 1 if corrupt else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
