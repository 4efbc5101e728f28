#!/usr/bin/env python
"""Lint: an option is a field somebody sets.

For every field of a ``*Config`` / ``*Policy`` / ``FaultPlan`` dataclass
under ``src/repro``, some call site in ``src``, ``tests``, ``examples``,
``benchmarks``, ``bench_e2e`` or ``tools`` must pass it: by keyword or
position to the class's constructor, or as a keyword of any
``replace(...)`` call (matched by field name, conservatively — the
instance's class is not inferred).  ``**kwargs`` sets nothing.  A field
with no setter is a constant that looks like a choice; the fix is to make
it one.  Prints the option count, so ROADMAP's number is this command's
output.  ``python tools/check_options.py [package dir]``.
"""

from __future__ import annotations

import ast
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from walklib import REPO_ROOT, iter_python_files, relpath, resolve_roots

CALL_SITE_ROOTS = ("src", "tests", "examples", "benchmarks", "bench_e2e",
                   "tools")
OPTION_CLASS = re.compile(r"(Config|Policy)$|^FaultPlan$")


def _callee(node: ast.Call) -> str | None:
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _parse(source: bytes, path: str) -> ast.AST:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError:  # unparseable files are some other tool's problem
        return ast.Module([], [])


def main(argv: list[str] | None = None) -> int:
    roots = resolve_roots(argv, program="check_options")
    if roots is None:
        return 2
    sources = {}
    for path in iter_python_files(
            roots + [os.path.join(REPO_ROOT, d) for d in CALL_SITE_ROOTS]):
        with open(path, "rb") as fh:
            sources[path] = fh.read()

    declared: dict[str, list[tuple[str, str]]] = {}  # class -> [(field, where)]
    for path in iter_python_files(roots):
        for node in ast.walk(_parse(sources[path], path)):
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and OPTION_CLASS.search(node.name)):
                declared[node.name] = [
                    (stmt.target.id, f"{relpath(path)}:{stmt.lineno}")
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)]

    # A call's callee is in the file's text: parse only files that could
    # hold a setter.
    callees = [name.encode() for name in (*declared, "replace")]
    tests_root = os.path.join(REPO_ROOT, "tests") + os.sep
    setters: dict[tuple[str, str], set[bool]] = {}  # -> {set from tests?}
    for path, source in sources.items():
        if not any(name in source for name in callees):
            continue
        in_tests = path.startswith(tests_root)
        for node in ast.walk(_parse(source, path)):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            named = [kw.arg for kw in node.keywords if kw.arg]
            if name == "replace":
                hits = [(cls, f) for cls, fields in declared.items()
                        for f, _ in fields if f in named]
            elif name in declared:
                fields = [f for f, _ in declared[name]]
                n_pos = next((i for i, a in enumerate(node.args)
                              if isinstance(a, ast.Starred)), len(node.args))
                hits = [(name, f) for f in fields[:n_pos] + named]
            else:
                continue
            for hit in hits:
                setters.setdefault(hit, set()).add(in_tests)

    violations = [f"{where}: {cls}.{f} has no setter — make it a constant"
                  for cls, fields in declared.items()
                  for f, where in fields if (cls, f) not in setters]
    if violations:
        sys.stderr.write("\n".join(violations) + "\n")
        return 1
    n_fields = sum(map(len, declared.values()))
    tests_only = sum(1 for cls, fields in declared.items() for f, _ in fields
                     if setters[cls, f] == {True})
    sys.stdout.write(f"options: {n_fields} fields "
                     f"({tests_only} set only by tests)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
