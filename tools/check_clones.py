#!/usr/bin/env python
"""Lint: no 8 consecutive code lines appear twice under ``src/repro``.

Lines are compared stripped, blank and ``#`` comment lines dropped (so
re-indenting or re-commenting a copy does not hide it); each repeated
block is listed once, where it starts.  ``python tools/check_clones.py
[package dir]``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from walklib import iter_python_files, relpath, resolve_roots

WINDOW = 8


def main(argv: list[str] | None = None) -> int:
    roots = resolve_roots(argv, program="check_clones")
    if roots is None:
        return 2
    first: dict[tuple[str, ...], str] = {}
    violations: list[str] = []
    for path in iter_python_files(roots):
        with open(path, encoding="utf-8") as fh:
            code = [(number, text)
                    for number, text in enumerate(map(str.strip, fh), 1)
                    if text and not text.startswith("#")]
        in_clone = False
        for i in range(len(code) - WINDOW + 1):
            here = f"{relpath(path)}:{code[i][0]}"
            window = tuple(text for _, text in code[i:i + WINDOW])
            original = first.setdefault(window, here)
            if original != here and not in_clone:
                violations.append(f"{here}: {WINDOW} consecutive code lines "
                                  f"repeat {original}")
            in_clone = original != here
    if violations:
        sys.stderr.write("\n".join(violations) + "\n")
        return 1
    sys.stdout.write(f"check_clones: OK ({len(first)} windows)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
