#!/usr/bin/env python
"""Single lint entrypoint: run every repo checker, fail if any fails.

CI calls this one script instead of each checker individually; adding a
checker here adds it everywhere.  Each checker is a module in ``tools/``
exposing ``main(argv) -> int`` (0 = clean).

Usage::

    python tools/lint.py                  # all checkers, default roots
    python tools/lint.py src/repro/serve  # restrict to one package
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bare_except
import check_clones
import check_metric_names
import check_no_print
import check_options
import check_seeded_rng

#: name -> main(argv) callable; extend to register a new checker.
CHECKERS = {
    "check_no_print": check_no_print.main,
    "check_bare_except": check_bare_except.main,
    "check_metric_names": check_metric_names.main,
    "check_seeded_rng": check_seeded_rng.main,
    "check_clones": check_clones.main,
    "check_options": check_options.main,
}


def main(argv: list[str] | None = None) -> int:
    failed: list[str] = []
    for name, checker in CHECKERS.items():
        rc = checker(argv)
        if rc != 0:
            failed.append(f"{name} (exit {rc})")
    if failed:
        sys.stderr.write("lint: FAILED: " + ", ".join(failed) + "\n")
        return 1
    sys.stdout.write(f"lint: OK ({len(CHECKERS)} checkers)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
