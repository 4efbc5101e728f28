#!/usr/bin/env python
"""The repo lint: one walk over the tree, a table of rules, exit 0 or 1.

Usage::

    python tools/lint.py                  # every rule over src/repro
    python tools/lint.py src/repro/serve  # every rule over one package

Each file is read once and parsed and tokenized at most once.  A per-file
rule is a function of one parsed file returning ``(line, message)``
findings; a whole-tree rule sees every parsed file.  A clean rule prints
its summary line on stdout, a dirty one its ``path:line: message``
findings on stderr.  A file that does not tokenize or parse is one finding,
``path:line: does not parse: <error>``, and no rule sees it.  A new rule
is one row of :data:`RULES`.
"""

from __future__ import annotations

import ast
import functools
import io
import os
import re
import sys
import tokenize
from typing import Iterable, Iterator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Production trees: what they name is used.  ``tests`` is read too, but
#: only for option setters.
CALLER_ROOTS = ("src", "tools", "benchmarks", "bench_e2e", "examples")

#: Option fields that stay settable with no production setter because they
#: are a site's capacity, ``"path under src/repro::Class.field"`` -> why,
#: and the test that varies it.  An entry whose field is gone, or which has
#: a production setter now, is itself a finding.
DEPLOYMENT = {
    "serve/service.py::ServiceConfig.cache_bytes":
        "the forecast cache's memory budget (DESIGN §11); "
        "tests/serve/test_service.py::TestPinnedScenario",
    "serve/batcher.py::BatcherConfig.max_members":
        "member rows per stacked forward (DESIGN §11); "
        "tests/obs/test_golden_metrics.py, tests/serve/test_service.py",
}


#: Constructor parameters that stay settable with no production setter
#: because tests substitute a collaborator through them, ``"path under
#: src/repro::Class.param"`` -> the seam, and the test that substitutes
#: through it.  An entry whose parameter is gone, or which has a
#: production setter now, is itself a finding.
SEAMS = {
    "obs/profile.py::monitored.clock":
        "a stepping clock makes every timestamp of a monitored session "
        "deterministic (DESIGN §11); tests/obs/test_golden_metrics.py",
    "simtest/runner.py::SimWorld.train_archive":
        "the session's archive, shared instead of rebuilt per scenario "
        "(DESIGN §15); tests/simtest/conftest.py",
    "simtest/runner.py::SimWorld.serve_components":
        "the session's trained serve stack, shared instead of retrained "
        "(DESIGN §15); tests/simtest/conftest.py",
    "simtest/runner.py::SimRunner.world":
        "the shared world above; tests/simtest/conftest.py",
    "simtest/runner.py::SimRunner.registry":
        "a synthetic invariant the shrinker must reduce a scenario to "
        "(DESIGN §15); tests/simtest/test_shrink.py",
}


def _src(*parts: str) -> str:
    return os.path.join(REPO_ROOT, "src", "repro", *parts)


def iter_python_files(roots: Iterable[str]) -> Iterator[str]:
    """``.py`` paths under ``roots`` in deterministic (sorted) order."""
    for root in roots:
        for dirpath, _dirnames, filenames in sorted(os.walk(root)):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


class Source:
    """One file, read once; parsed and tokenized on first use."""

    def __init__(self, path: str):
        self.path, self.rel = path, os.path.relpath(path, REPO_ROOT)
        with open(path, "rb") as fh:
            self.data = fh.read()

    @functools.cached_property
    def tree(self) -> ast.Module:
        return ast.parse(self.data, filename=self.path)

    @functools.cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of :attr:`tree`, walked once for all rules."""
        return list(ast.walk(self.tree))

    @functools.cached_property
    def tokens(self) -> list[tokenize.TokenInfo]:
        return list(tokenize.tokenize(io.BytesIO(self.data).readline))

    @functools.cached_property
    def lines(self) -> list[str]:
        return list(io.TextIOWrapper(io.BytesIO(self.data), encoding="utf-8"))


class Tree:
    """The files under ``roots``, parsed and tokenized; production files
    parsed on first use.  What does not parse lands in ``broken``."""

    def __init__(self, roots: list[str]):
        self.roots, self.broken = roots, {}
        self._read: dict[str, Source] = {}
        self.files = self.parsed(iter_python_files(roots), tokens=True)

    @functools.cached_property
    def production(self) -> list[Source]:
        return self.parsed(dict.fromkeys(iter_python_files(
            self.roots + [os.path.join(REPO_ROOT, d) for d in CALLER_ROOTS])))

    def read(self, path: str) -> Source:
        if path not in self._read:
            self._read[path] = Source(path)
        return self._read[path]

    def parsed(self, paths: Iterable[str],
               tokens: bool = False) -> list[Source]:
        out = []
        for src in map(self.read, paths):
            try:
                src.tree, tokens and src.tokens
            except (SyntaxError, ValueError, tokenize.TokenError) as exc:
                line = getattr(exc, "lineno", None) or (
                    exc.args[1][0] if isinstance(exc, tokenize.TokenError)
                    else 1)
                error = getattr(exc, "msg", None) or exc.args[0]
                self.broken[src.path] = (
                    f"{src.rel}:{line}: does not parse: {error}")
                continue
            out.append(src)
        return out


# -- per-file rules: (line, message) findings of one parsed file ------------

def _name_then(src: Source, name: str, op: str) -> list[int]:
    """Lines of token NAME ``name`` directly followed by OP ``op``."""
    return [tok.start[0] for tok, nxt in zip(src.tokens, src.tokens[1:])
            if tok.type == tokenize.NAME and tok.string == name
            and nxt.type == tokenize.OP and nxt.string == op]


def print_calls(src: Source) -> list[tuple[int, str]]:
    """Library output flows through ``repro.obs``, not ``print(``."""
    return [(line, "print() call (route output through repro.obs)")
            for line in _name_then(src, "print", "(")]


def bare_excepts(src: Source) -> list[tuple[int, str]]:
    """A bare ``except:`` eats the typed fault escalations recovery
    dispatches on; ``except ...: pass`` destroys the evidence."""
    swallowing = sorted(
        node.lineno for node in src.nodes
        if isinstance(node, ast.ExceptHandler)
        and len(node.body) == 1 and isinstance(node.body[0], ast.Pass))
    return ([(line, "bare except: (catch a concrete exception type)")
             for line in _name_then(src, "except", ":")]
            + [(line, "except ...: pass (handle the exception or let it "
                "propagate)") for line in swallowing])


#: ``subsystem.name`` — exactly one dot, lowercase snake_case both sides.
NAME_RE = re.compile(r"^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$")
LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: Non-canonical unit suffixes -> the canonical spelling.
BAD_SUFFIXES = {
    "_seconds": "_s", "_sec": "_s", "_secs": "_s", "_ms": "_s",
    "_millis": "_s", "_us": "_s", "_ns": "_s",
    "_kb": "_bytes", "_mb": "_bytes", "_gb": "_bytes", "_b": "_bytes",
    "_pct": "_frac", "_percent": "_frac", "_ratio": "_frac",
}
#: ``repro.obs`` booking hooks (name is argument 0, every keyword but
#: ``buckets`` a label), registry registrations, and the writes whose
#: keywords are labels when chained on a registration.
HOOKS = ("count", "gauge", "observe")
REGISTER_METHODS = ("counter", "gauge", "histogram")
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


def scan(src: Source) -> tuple[int, list[tuple[int, str]]]:
    """``(booking calls, sorted findings)``: string-literal metric names
    are ``subsystem.name_unit`` with a canonical unit suffix, and label
    keys are snake_case.  A booking call is a hook call or a write chained
    on a string-literal registration."""
    n_bookings = 0
    out: list[tuple[int, str]] = []
    for node in src.nodes:
        hook = _is_hook_call(node)
        if (hook and _names_literal_metric(node)) or _is_register_call(node):
            message = check_name(node.args[0].value)
            if message:
                out.append((node.lineno, message))
        if hook or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in RECORD_METHODS
                    and _is_register_call(node.func.value)):
            n_bookings += 1
            out += [(node.lineno, f"label {kw.arg!r} is not lowercase "
                     "snake_case") for kw in node.keywords
                    if kw.arg not in (None, "buckets")
                    and not LABEL_RE.match(kw.arg)]
    return n_bookings, sorted(out)


#: ``np.random`` attributes that are explicitly seeded constructs.
SEEDED_CONSTRUCTS = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})


def unseeded_rng(src: Source) -> list[tuple[int, str]]:
    """Simtest replay needs every run a pure function of its seed: no
    stdlib ``random``, no ``np.random.<draw>`` on the global generator."""
    out: list[tuple[int, str]] = []
    for node in src.nodes:
        if isinstance(node, ast.Import):
            out += [(node.lineno, "import random (global-state RNG; use "
                     "np.random.default_rng(seed))") for alias in node.names
                    if alias.name == "random"
                    or alias.name.startswith("random.")]
        elif (isinstance(node, ast.ImportFrom) and node.module == "random"
              and node.level == 0):
            out.append((node.lineno, "from random import ... (global-state "
                        "RNG; use np.random.default_rng(seed))"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "random"
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id in ("np", "numpy")
              and node.attr not in SEEDED_CONSTRUCTS):
            out.append((node.lineno, f"np.random.{node.attr} draws from the "
                        "global generator (use np.random.default_rng(seed))"))
    return sorted(out)


def global_statements(src: Source) -> list[tuple[int, str]]:
    """A switch is a ``ContextVar`` set for a block by ``repro.scoped``, so
    a thread sees its own and a row-shard worker its caller's; a module
    global is shared by every thread at once."""
    return sorted((node.lineno, "global statement (hold the state in a "
                   "ContextVar, set it with repro.scoped)")
                  for node in src.nodes if isinstance(node, ast.Global))


def _per_file(tree: Tree, label: str, check,
              exempt: str | None = None) -> tuple[list[str], str]:
    """``check`` over every file but those under ``exempt`` (a directory,
    or one file)."""
    skip = exempt and exempt + os.sep
    found = [f"{src.rel}:{line}: {message}" for src in tree.files
             if not (skip and (src.path + os.sep).startswith(skip))
             for line, message in check(src)]
    n = len(tree.roots)
    return found, f"{label}: OK ({n} root{'s' if n != 1 else ''})"


def metric_names(tree: Tree) -> tuple[list[str], str]:
    scans = [(src, *scan(src)) for src in tree.files]
    found = [f"{src.rel}:{line}: {message}"
             for src, _, out in scans for line, message in out]
    return found, (f"check_metric_names: OK ({len(tree.files)} files, "
                   f"{sum(n for _, n, _ in scans)} booking calls)")


# -- whole-tree rules -------------------------------------------------------

def _unmatched(tree: Tree, table: str, entries: Iterable[str],
               kind: str) -> list[str]:
    """A finding for each ``DEPLOYMENT`` / ``SEAMS`` entry left over after
    the walk whose module lies under the roots: it names nothing."""
    found = []
    for entry in entries:
        module, name = entry.split("::")
        if any(_src(module).startswith(root + os.sep) for root in tree.roots):
            found.append(f"{os.path.relpath(_src(module), REPO_ROOT)}:1: "
                         f"{table} entry {name} names no {kind}")
    return found


CLONE_WINDOW = 8


def clones(tree: Tree) -> tuple[list[str], str]:
    """No 8 consecutive code lines twice, compared stripped with blank and
    ``#`` lines dropped; each repeat is listed once, where it starts."""
    first: dict[tuple[str, ...], str] = {}
    found: list[str] = []
    for src in tree.files:
        code = [(number, text)
                for number, text in enumerate(map(str.strip, src.lines), 1)
                if text and not text.startswith("#")]
        in_clone = False
        for i in range(len(code) - CLONE_WINDOW + 1):
            here = f"{src.rel}:{code[i][0]}"
            window = tuple(text for _, text in code[i:i + CLONE_WINDOW])
            original = first.setdefault(window, here)
            if original != here and not in_clone:
                found.append(f"{here}: {CLONE_WINDOW} consecutive code lines "
                             f"repeat {original}")
            in_clone = original != here
    return found, f"check_clones: OK ({len(first)} windows)"


OPTION_CLASS = re.compile(r"(Config|Policy)$|^FaultPlan$")


def _calls(node: ast.AST, cls: ast.ClassDef | None = None,
           fn: ast.AST | None = None) -> Iterator[tuple]:
    """``(call, enclosing class, enclosing def of that class)`` of every
    call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, cls, fn
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, child, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, cls, fn or child)
        else:
            yield from _calls(child, cls, fn)


def _base_names(node: ast.ClassDef) -> list[str]:
    return [getattr(b, "id", None) or getattr(b, "attr", "")
            for b in node.bases]


def _init_target(node: ast.Call, cls: ast.ClassDef | None, fn,
                 owner) -> tuple[str | None, int]:
    """``(class, leading positionals to skip)``: whose ``__init__`` the
    call runs, if it runs one under the roots."""
    func = node.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name != "__init__":
        if name == "cls" and isinstance(func, ast.Name) and cls is not None:
            in_classmethod = fn is not None and any(
                getattr(d, "id", None) == "classmethod"
                for d in fn.decorator_list)
            return (owner(cls.name) if in_classmethod else None), 0
        return owner(name), 0
    if (isinstance(func.value, ast.Call) and cls is not None
            and getattr(func.value.func, "id", None) == "super"):
        return next(filter(None, map(owner, _base_names(cls))), None), 0
    if isinstance(func.value, ast.Name):
        return owner(func.value.id), 1
    return None, 0


def _functions(node: ast.AST, prefix: str = "",
               cls: ast.ClassDef | None = None) -> Iterator[tuple]:
    """``(qualname, def, class it is a method of)`` of every def under
    ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", child, cls
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix, cls)


def options(tree: Tree) -> tuple[list[str], str]:
    """Every field of a ``*Config`` / ``*Policy`` / ``FaultPlan``
    dataclass, and every defaulted parameter of every def under the roots
    (``__init__``, method, function, nested helper), is set by production
    code — a file under the roots or :data:`CALLER_ROOTS` — or is in
    :data:`DEPLOYMENT` (fields) or :data:`SEAMS` (parameters).  A field or
    parameter with no setter, or set only under ``tests/``, is a constant
    that looks like a choice.

    A field is set by keyword or position to its constructor, or as a
    keyword of any ``replace(...)`` (matched by field name); ``**kwargs``
    sets no field.  A parameter is set by keyword or position to a call
    of its def, resolved by name to every def of that name (an
    ``__init__`` through its class, a subclass that inherits it,
    ``super().__init__`` in a subclass, ``Base.__init__(self, ...)`` or
    ``cls(...)`` in a classmethod).  A call with ``*args`` or ``**kwargs``
    sets every parameter, and so does naming a def as a value
    (``run(check)``, ``partial(self._step)``): whatever calls it may pass
    anything."""
    #: class -> (its site, [(field, at)]); a site is ``path::qualname``
    declared: dict[str, tuple[str, list[tuple[str, str]]]] = {}
    bases: dict[str, list[str]] = {}  # class -> base names
    #: (site, positional parameter names, [(defaulted parameter, at)],
    #: whether ``Class.name(self, ...)`` passes ``self`` positionally)
    inits: dict[str, tuple] = {}  # class -> its ``__init__``
    named: dict[str, list[tuple]] = {}  # def name -> every other def
    for src in tree.files:
        module = os.path.relpath(src.path, _src()).replace(os.sep, "/")
        for node in src.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name] = _base_names(node)
            if OPTION_CLASS.search(node.name) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                declared[node.name] = (f"{module}::{node.name}", [
                    (stmt.target.id, f"{src.rel}:{stmt.lineno}")
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)])
        for qual, fn, cls in _functions(src.tree):
            decorators = {getattr(d, "id", None) for d in fn.decorator_list}
            bound = cls is not None and "staticmethod" not in decorators
            args = fn.args
            positional = [*args.posonlyargs, *args.args][bound:]
            defaulted = positional[len(positional)
                                   - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
            init = cls is not None and fn.name == "__init__"
            sig = (f"{module}::{qual.removesuffix('.__init__')}"
                   if init else f"{module}::{qual}",
                   [a.arg for a in positional],
                   [(a.arg, f"{src.rel}:{a.lineno}") for a in defaulted],
                   bound and "classmethod" not in decorators)
            if init:
                inits[cls.name] = sig
            else:
                named.setdefault(fn.name, []).append(sig)

    def owner(name: str | None, seen: frozenset = frozenset()) -> str | None:
        """The class under the roots whose ``__init__`` ``name(...)``
        runs, if any."""
        if name in inits or name not in bases or name in seen:
            return name if name in inits else None
        return next(filter(None, (owner(b, seen | {name})
                                  for b in bases[name])), None)

    production = set(iter_python_files(tree.roots + [
        os.path.join(REPO_ROOT, d) for d in CALLER_ROOTS]))
    setters: dict[tuple[str, str], bool] = {}  # -> set by production code?
    paths = dict.fromkeys([*production, *iter_python_files(
        [os.path.join(REPO_ROOT, "tests")])])
    for src in tree.parsed(paths):
        hits = []
        for node, cls, fn in _calls(src.tree):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords = [kw.arg for kw in node.keywords if kw.arg]
            n_pos = next((i for i, a in enumerate(node.args)
                          if isinstance(a, ast.Starred)), len(node.args))
            if name == "replace":
                hits += [(site, f) for site, fields in declared.values()
                         for f, _ in fields if f in keywords]
            elif name in declared:
                site, fields = declared[name]
                hits += [(site, f) for f in
                         [f for f, _ in fields][:n_pos] + keywords]
            target, skip = _init_target(node, cls, fn, owner)
            via_class = (isinstance(func, ast.Attribute)
                         and getattr(func.value, "id", None) in bases)
            every = (n_pos < len(node.args)
                     or len(keywords) < len(node.keywords))
            for (site, positional, params, _), skip in (
                    [(inits[target], skip)] if target is not None else
                    [(sig, int(sig[3] and via_class))
                     for sig in named.get(name, ())]):
                covered = {*positional[:max(n_pos - skip, 0)], *keywords}
                hits += [(site, p) for p, _ in params
                         if every or p in covered]
        # A def named as a value — not called, not an attribute's owner.
        passed = {id(n.func) for n in src.nodes if isinstance(n, ast.Call)
                  } | {id(n.value) for n in src.nodes
                       if isinstance(n, ast.Attribute)}
        hits += [(site, p) for n in src.nodes
                 if isinstance(n, (ast.Name, ast.Attribute))
                 and isinstance(n.ctx, ast.Load) and id(n) not in passed
                 for site, _, params, _ in named.get(
                     getattr(n, "id", None) or n.attr, ())
                 for p, _ in params]
        for hit in hits:
            setters[hit] = setters.get(hit) or src.path in production
    found: list[str] = []

    def judge(table: dict[str, str], table_name: str, kind: str,
              owned: Iterable[tuple[str, list[tuple[str, str]]]]) -> int:
        """Append the findings over ``owned``, ``(site, [(name, at)])``;
        the number of ``table`` entries that exempt something."""
        left = dict(table)
        for site, names in owned:
            qual = site.split("::")[1]
            for n, at in names:
                by_production = setters.get((site, n))  # None: no setter
                if left.pop(f"{site}.{n}", None) is not None:
                    if by_production:
                        found.append(f"{at}: {table_name} entry "
                                     f"{qual}.{n} has a production setter "
                                     "now (drop the entry)")
                elif by_production is None:
                    found.append(f"{at}: {qual}.{n} has no setter — make it "
                                 "a constant")
                elif not by_production:
                    found.append(f"{at}: {qual}.{n} is set only by tests — "
                                 "make it a constant")
        found.extend(_unmatched(tree, table_name, left, kind))
        return len(table) - len(left)

    sigs = [*inits.values(), *(s for group in named.values() for s in group)]
    n_deployment = judge(DEPLOYMENT, "DEPLOYMENT", "field",
                         declared.values())
    n_seams = judge(SEAMS, "SEAMS", "parameter",
                    [(site, params) for site, _, params, _ in sigs])
    return found, (f"options: {sum(len(f) for _, f in declared.values())} "
                   f"fields ({n_deployment} deployment), "
                   f"{sum(len(s[2]) for s in sigs)} parameters "
                   f"({n_seams} seams)")


def _probe_names(tree: Tree) -> set[str]:
    """The ``Class.method`` / function names ``bench_e2e/trace.py``'s
    ``PROBES`` patch by name: frozen API, exempt."""
    trace = os.path.join(REPO_ROOT, "bench_e2e", "trace.py")
    if not os.path.isfile(trace):
        return set()
    return {node.args[1].value
            for src in tree.parsed([trace]) for stmt in src.tree.body
            if isinstance(stmt, ast.AnnAssign)
            and getattr(stmt.target, "id", None) == "PROBES"
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Probe"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)}


DUNDER = re.compile(r"^__\w+__$")


def _defs(module: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """``(qualname, node)`` of each top-level def/class and class-level
    def, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in module.body:
        if isinstance(node, kinds) and not DUNDER.match(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item)
                        for item in node.body if isinstance(item, kinds[:2])
                        and not DUNDER.match(item.name))


def dead_names(tree: Tree) -> tuple[list[str], str]:
    """Every top-level def/class and class-level def under the roots is
    named by production code under :data:`CALLER_ROOTS` — tests, imports
    and strings do not count — or is a ``PROBES`` target.  An attribute
    ``x.name`` names either kind; a bare ``name`` names only a top-level
    def (a method is never reached by its bare name, so a local of the
    same name does not keep it alive)."""
    attrs, names = set(), set()
    for src in tree.production:
        for node in src.nodes:
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    probes = _probe_names(tree)
    found = [f"{src.rel}:{node.lineno}: {qualname} has no caller outside "
             "tests (delete it, or call it from production code)"
             for src in tree.files for qualname, node in _defs(src.tree)
             if node.name not in attrs and qualname not in probes
             and ("." in qualname or node.name not in names)]
    return found, f"dead names: {len(found)} flagged"


#: ``(name, rule)``; a rule maps the parsed tree to ``(findings, summary)``.
RULES = (
    ("no-print", lambda tree: _per_file(tree, "check_no_print", print_calls,
                                        exempt=_src("obs"))),
    ("bare-except", lambda tree: _per_file(tree, "check_bare_except",
                                           bare_excepts)),
    ("metric-names", metric_names),
    ("seeded-rng", lambda tree: _per_file(tree, "check_seeded_rng",
                                          unseeded_rng)),
    ("clones", clones),
    ("options", options),
    ("dead-names", dead_names),
    ("no-global", lambda tree: _per_file(
        tree, "check_no_global", global_statements,
        exempt=_src("rows.py"))),
)


def main(argv: list[str] | None = None) -> int:
    roots = [os.path.abspath(p) for p in (argv or [])] or [_src()]
    for root in roots:
        if not os.path.isdir(root):
            sys.stderr.write(f"lint: not a directory: {root}\n")
            return 2
    tree = Tree(roots)
    failed = []
    for name, rule in RULES:
        found, summary = rule(tree)
        if found:
            failed.append(name)
            sys.stderr.write("\n".join(found) + "\n")
        else:
            sys.stdout.write(summary + "\n")
    if tree.broken:
        failed.append("parse")
        sys.stderr.write("\n".join(tree.broken.values()) + "\n")
    if failed:
        sys.stderr.write("lint: FAILED: " + ", ".join(failed) + "\n")
        return 1
    sys.stdout.write(f"lint: OK ({len(RULES)} rules)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
