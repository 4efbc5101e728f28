#!/usr/bin/env python
"""Lint: metric names follow the ``subsystem.name_unit`` convention.

Every instrument booked through the ``repro.obs`` hooks (``count("...")``
/ ``gauge("...")`` / ``observe("...")``, under any ``_``-prefixed import
alias) or registered on a metrics registry (``.counter("...")`` /
``.gauge("...")`` / ``.histogram("...")``) with a string-literal name
must spell its name as ``subsystem.name``: one lowercase dotted namespace
segment, then lowercase snake_case.  Metrics carrying a physical unit
must use the canonical suffix — ``_s`` for seconds, ``_bytes`` for bytes,
``_frac`` for fractions — so dashboards and the Prometheus exporter never
mix ``_ms`` with ``_seconds`` for the same quantity.  Label keys — a
hook's keyword arguments, or those of ``.inc(...)`` / ``.set(...)`` /
``.observe(...)`` chained directly on a registration — must be lowercase
snake_case too.

AST-based: only string-literal metric names are checkable (a computed
name is the caller's responsibility).  Exits non-zero listing offending
``file:line`` locations.

Usage::

    python tools/check_metric_names.py                  # all of src/repro
    python tools/check_metric_names.py src/repro/serve  # one package
"""

from __future__ import annotations

import ast
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from walklib import iter_python_files, relpath, resolve_roots

#: ``subsystem.name`` — exactly one dot, lowercase snake_case both sides.
NAME_RE = re.compile(r"^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$")

LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Non-canonical unit suffixes → the canonical spelling.
BAD_SUFFIXES = {
    "_seconds": "_s", "_sec": "_s", "_secs": "_s", "_ms": "_s",
    "_millis": "_s", "_us": "_s", "_ns": "_s",
    "_kb": "_bytes", "_mb": "_bytes", "_gb": "_bytes", "_b": "_bytes",
    "_pct": "_frac", "_percent": "_frac", "_ratio": "_frac",
}

#: The booking hooks of ``repro.obs.profile``: name is argument 0, every
#: keyword but ``buckets`` is a label.
HOOKS = ("count", "gauge", "observe")

#: Registry methods that register an instrument by name.
REGISTER_METHODS = ("counter", "gauge", "histogram")

#: Recording methods whose kwargs are label keys.
RECORD_METHODS = ("inc", "set", "observe")


def check_name(name: str) -> str | None:
    """The violation message for one metric name, or ``None`` if clean."""
    if not NAME_RE.match(name):
        return (f"metric {name!r} does not match subsystem.name "
                "(lowercase snake_case, exactly one dot)")
    for suffix, canonical in BAD_SUFFIXES.items():
        if name.endswith(suffix):
            return (f"metric {name!r} uses non-canonical unit suffix "
                    f"{suffix!r} (use {canonical!r})")
    return None


def _names_literal_metric(node: ast.Call) -> bool:
    return (bool(node.args) and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str))


def _is_register_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in REGISTER_METHODS
            and _names_literal_metric(node))


def _is_hook_call(node: ast.AST) -> bool:
    """``count(...)`` under its own name or a ``_``-prefixed alias, or
    ``obs.count(...)`` — not ``text.count(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id.lstrip("_") in HOOKS
    return (isinstance(func, ast.Attribute) and func.attr in HOOKS
            and isinstance(func.value, ast.Name) and func.value.id == "obs")


def scan(path: str) -> tuple[int, list[tuple[int, str]]]:
    """``(booking calls visited, sorted (line, message) violations)`` for
    one file; a booking call is a hook call or a write chained on a
    string-literal registration."""
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), filename=path)
    n_bookings = 0
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        hook = _is_hook_call(node)
        if (hook and _names_literal_metric(node)) or _is_register_call(node):
            message = check_name(node.args[0].value)
            if message:
                out.append((node.lineno, message))
        # Label kwargs: a hook's own, and those of calls chained directly
        # off a registration (``registry.counter("x.y").inc(1, label=...)``)
        # — a bare ``.set(...)`` elsewhere is usually not a metric.
        if hook or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in RECORD_METHODS
                    and _is_register_call(node.func.value)):
            n_bookings += 1
            for kw in node.keywords:
                if kw.arg is None or kw.arg == "buckets":
                    continue
                if not LABEL_RE.match(kw.arg):
                    out.append((node.lineno,
                                f"label {kw.arg!r} is not lowercase "
                                "snake_case"))
    return n_bookings, sorted(out)


def metric_violations(path: str) -> list[tuple[int, str]]:
    """(line, message) pairs for one file."""
    return scan(path)[1]


def main(argv: list[str] | None = None) -> int:
    roots = resolve_roots(argv, program="check_metric_names")
    if roots is None:
        return 2
    violations: list[str] = []
    n_files = n_bookings = 0
    for path in iter_python_files(roots):
        n_files += 1
        seen, found = scan(path)
        n_bookings += seen
        for line, message in found:
            violations.append(f"{relpath(path)}:{line}: {message}")
    if violations:
        sys.stderr.write("\n".join(violations) + "\n")
        return 1
    sys.stdout.write(f"check_metric_names: OK ({n_files} files, "
                     f"{n_bookings} booking calls)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
