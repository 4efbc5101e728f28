"""End-to-end benchmark of the AERIS reproduction (see README.md)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ensure_repro() -> None:
    """Make ``repro`` importable from the checkout's ``src/`` (the
    benchmark runs from a plain checkout, nothing is installed)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
