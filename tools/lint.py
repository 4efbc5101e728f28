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
import builtins
import functools
import gc
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

    @functools.cached_property
    def scoped(self) -> "Scoped":
        return Scoped(self.tree, self.path)


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

    @functools.cached_property
    def resolver(self) -> "Resolver":
        return Resolver(self)

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
    a thread sees its own; a module global is shared by every thread at
    once."""
    return sorted((node.lineno, "global statement (hold the state in a "
                   "ContextVar, set it with repro.scoped)")
                  for node in src.nodes if isinstance(node, ast.Global))


def _per_file(tree: Tree, label: str, check,
              exempt: str | None = None) -> tuple[list[str], str]:
    """``check`` over every file but those under the directory
    ``exempt``."""
    skip = exempt and exempt + os.sep
    found = [f"{src.rel}:{line}: {message}" for src in tree.files
             if not (skip and src.path.startswith(skip))
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


# -- the receiver resolver: which defs under the roots a name may reach ----

class Scope:
    """A module, class, function or lambda body and the names it binds,
    ``name -> [(kind, payload, scope)]``.  A kind is ``"self"`` (a
    method's first parameter; payload ``(class, in a classmethod)``),
    ``"param"`` (its annotation), ``"assign"`` (the value, ``None`` where
    one cannot be told), ``"ann"`` (the annotation), ``"import"``
    (``(level, module, name)``) or ``"def"`` (the def or class)."""

    def __init__(self, kind: str, parent: "Scope | None",
                 node: ast.ClassDef | None = None):
        #: A class body's class, or the class a method's body belongs to.
        self.kind, self.parent, self.node = kind, parent, node
        #: The file of the module (set on the module's scope by
        #: :class:`Scoped`; every scope in it shares it).
        self.file: str | None = parent and parent.file
        self.binds: dict[str, list[tuple]] = {}
        self.outer: set[str] = set()  # ``global`` / ``nonlocal`` names

    def bind(self, name: str, kind: str, payload=None) -> None:
        self.binds.setdefault(name, []).append((kind, payload, self))

    def lookup(self, name: str) -> "Scope | None":
        """The scope whose binding of ``name`` a read here sees; a class
        body is seen only from its own statements."""
        scope, here = self, True
        while scope is not None:
            if (name in scope.binds and name not in scope.outer
                    and (here or scope.kind != "class")):
                return scope
            scope, here = scope.parent, False
        return None

    def method_class(self) -> ast.ClassDef | None:
        """The class whose method this body is, or lies in."""
        scope = self
        while scope is not None and not (scope.kind == "function"
                                         and scope.node is not None):
            scope = scope.parent
        return scope and scope.node


class Scoped:
    """One file's names: every ``Name`` and ``Attribute`` with the scope
    it is read in, every call, and every ``self.attr`` or class-body
    binding, ``(class, attr, kind, payload, scope)``."""

    def __init__(self, module: ast.Module, path: str):
        self.sites: list[tuple[ast.AST, Scope]] = []
        self.calls: list[tuple[ast.Call, Scope]] = []
        self.stores: list[tuple] = []
        self.called: set[int] = set()  # ``id`` of each call's callee
        self.receivers: set[int] = set()  # ``id`` of each ``x`` of ``x.m``
        self.module = Scope("module", None)
        self.module.file = path
        values: dict[int, tuple] = {}  # target -> (kind, payload)
        pending: list[tuple[list, Scope]] = [(module.body, self.module)]
        while pending:
            stack, scope = pending.pop()
            stack = list(stack)
            while stack:
                node = stack.pop()
                kind = type(node)
                if kind is ast.Name or kind is ast.Attribute:
                    self.sites.append((node, scope))
                    stored = type(node.ctx) is not ast.Load
                    binding = stored and values.get(id(node), ("assign", None))
                    if kind is ast.Name:
                        if stored:
                            scope.bind(node.id, *binding)
                            if scope.kind == "class":
                                self.stores.append((scope.node, node.id,
                                                    *binding, scope))
                        continue
                    self.receivers.add(id(node.value))
                    owner = stored and self._self_class(node.value, scope)
                    if owner:
                        self.stores.append((owner, node.attr, *binding,
                                            scope))
                elif kind is ast.Call:
                    self.calls.append((node, scope))
                    self.called.add(id(node.func))
                elif kind in (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda):
                    stack += self._signature(node)
                    method = scope.node if scope.kind == "class" else None
                    inner = Scope("function", scope, method)
                    self._bind_params(node, inner, method)
                    if kind is not ast.Lambda:
                        scope.bind(node.name, "def", node)
                    pending.append((node.body if kind is not ast.Lambda
                                    else [node.body], inner))
                    continue
                elif kind is ast.ClassDef:
                    scope.bind(node.name, "def", node)
                    stack += [*node.decorator_list, *node.bases,
                              *node.keywords]
                    pending.append((node.body, Scope("class", scope, node)))
                    continue
                elif kind is ast.Assign:
                    for target in node.targets:
                        self._pair(target, node.value, values)
                elif kind is ast.AnnAssign:
                    values[id(node.target)] = ("ann", node.annotation)
                elif kind is ast.Global or kind is ast.Nonlocal:
                    scope.outer.update(node.names)
                elif kind is ast.Import:
                    for alias in node.names:
                        top = alias.name.split(".")[0]
                        scope.bind(alias.asname or top, "import", (
                            0, alias.name if alias.asname else top, None))
                    continue
                elif kind is ast.ImportFrom:
                    for alias in node.names:
                        scope.bind(alias.asname or alias.name, "import", (
                            node.level, node.module or "", alias.name))
                    continue
                elif kind is ast.ExceptHandler and node.name:
                    scope.bind(node.name, "assign")
                # A plain value (a name, a flag, None) has no fields.
                for field in getattr(kind, "_fields", ()):
                    value = getattr(node, field)
                    if type(value) is list:
                        stack += value
                    elif value is not None:
                        stack.append(value)

    @staticmethod
    def _signature(node) -> list[ast.AST]:
        """What a def evaluates where it stands: decorators, defaults and
        annotations."""
        args = node.args
        out = [*args.defaults, *filter(None, args.kw_defaults)]
        if not isinstance(node, ast.Lambda):
            out += [*node.decorator_list, *filter(None, [node.returns])]
            out += [a.annotation for a in (
                *args.posonlyargs, *args.args, args.vararg,
                *args.kwonlyargs, args.kwarg) if a and a.annotation]
        return out

    @staticmethod
    def _bind_params(node, inner: Scope, cls: ast.ClassDef | None) -> None:
        args = node.args
        decorators = {getattr(d, "id", None)
                      for d in getattr(node, "decorator_list", ())}
        positional = [*args.posonlyargs, *args.args]
        for i, a in enumerate(positional + args.kwonlyargs):
            if i == 0 and cls is not None and "staticmethod" not in decorators:
                inner.bind(a.arg, "self", (cls, "classmethod" in decorators))
            else:
                inner.bind(a.arg, "param", a.annotation)
        for a in filter(None, (args.vararg, args.kwarg)):
            inner.bind(a.arg, "param")

    @staticmethod
    def _pair(target, value, values: dict[int, tuple]) -> None:
        """Match ``a, b = x, y`` element-wise; otherwise a target's value
        cannot be told."""
        if isinstance(target, (ast.Tuple, ast.List)):
            same = (isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)
                    and not any(isinstance(e, ast.Starred)
                                for e in (*value.elts, *target.elts)))
            for i, t in enumerate(target.elts):
                Scoped._pair(t, value.elts[i] if same else None, values)
        elif isinstance(target, ast.Starred):
            Scoped._pair(target.value, None, values)
        else:
            values[id(target)] = ("assign", value)

    @staticmethod
    def _self_class(node: ast.AST, scope: Scope) -> ast.ClassDef | None:
        """The class of ``self`` when ``node`` is a method's ``self``."""
        owner = isinstance(node, ast.Name) and scope.lookup(node.id)
        binds = owner.binds[node.id] if owner else ()
        if len(binds) == 1 and binds[0][0] == "self" and not binds[0][1][1]:
            return binds[0][1][0]
        return None


class Def:
    """One def or class under the roots: its file, qualname and node, and
    the class it is a method of."""

    def __init__(self, src: Source, qual: str, node: ast.AST,
                 cls: ast.ClassDef | None):
        self.src, self.rel, self.qual, self.node = src, src.rel, qual, node
        self.module = os.path.relpath(src.path, _src()).replace(os.sep, "/")
        self.cls, self.name = cls, node.name


def _defs_under(node: ast.AST, prefix: str = "",
                cls: ast.ClassDef | None = None,
                level: str = "top") -> Iterator[tuple]:
    """``(qualname, node, class it is a method of, level)`` of every def
    and class under ``node``; the level is ``"top"`` (module level),
    ``"member"`` (a class body) or ``"nested"`` (a def's body)."""
    for child in (c for f in ("body", "orelse", "finalbody", "handlers",
                              "cases") for c in getattr(node, f, None) or ()):
        if isinstance(child, ast.ClassDef):
            yield f"{prefix}{child.name}", child, cls, level
            yield from _defs_under(child, f"{prefix}{child.name}.", child,
                                   "member")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", child, cls, level
            yield from _defs_under(child, f"{prefix}{child.name}.", None,
                                   "nested")
        else:
            yield from _defs_under(child, prefix, cls, level)


def _base_names(node: ast.ClassDef) -> list[str]:
    return [getattr(b, "id", None) or getattr(b, "attr", "")
            for b in node.bases]


#: A type: a frozenset of ``(class, its subclasses too, the class object
#: itself rather than an instance)``.  The empty set is a type with no def
#: under the roots (NumPy, ``json``, builtins); ``None`` is unknown.
FOREIGN: frozenset = frozenset()
BUILTINS = frozenset(dir(builtins))
#: Expressions that build a builtin value: ``", ".join``, ``[...].append``.
LITERALS = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict,
            ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
            ast.GeneratorExp)
#: Annotation heads that say nothing about an attribute's owner.
OPAQUE = frozenset({"Any", "object"})
TYPING = ("typing", "typing_extensions", "collections", "abc")


def _union(a: frozenset | None, b: frozenset | None) -> frozenset | None:
    return None if a is None or b is None else a | b


class Resolver:
    """Which defs under the roots a ``Name`` or ``Attribute`` reaches.

    It resolves only where the answer is cheap and certain: ``self.m`` /
    ``cls.m`` through the class's bases plus any subclass override;
    ``C.m`` through ``C``'s bases; ``x.m`` where ``x`` is built by
    ``C(...)``, annotated with ``C`` (a parameter, or a return or
    property annotation of a def the call surely runs), or is ``self.a``
    annotated or assigned once; a module imported from outside the repo,
    a builtin, a literal or a non-repro annotation reaches no def.  A bare
    name bound in its function reaches only a def nested there.  Anything
    else reaches every def of the name."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self.defs: dict[int, Def] = {}  # ``id`` of the node -> its def
        self.top: dict[str, list[Def]] = {}
        self.members: dict[str, list[Def]] = {}
        self.classes: dict[str, list[tuple[Def, dict, list[str]]]] = {}
        self.subclasses: dict[str, set[str]] = {}
        self.attrs: dict[tuple[str, str], list[tuple]] = {}
        for src in tree.files:
            for qual, node, cls, level in _defs_under(src.tree):
                d = self.defs[id(node)] = Def(src, qual, node, cls)
                if level != "nested":
                    (self.top if level == "top" else self.members
                     ).setdefault(d.name, []).append(d)
            for cls, attr, *binding in src.scoped.stores:
                self.attrs.setdefault((cls.name, attr), []).append(binding)
        for d in list(self.defs.values()):
            if isinstance(d.node, ast.ClassDef):
                methods = {n.name: self.defs[id(n)] for n in d.node.body
                           if isinstance(n, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))}
                bases = _base_names(d.node)
                self.classes.setdefault(d.name, []).append(
                    (d, methods, bases))
                for base in bases:
                    self.subclasses.setdefault(base, set()).add(d.name)
        self.local = {"repro"} | {part for path in iter_python_files(
            [*tree.roots, *(os.path.join(REPO_ROOT, r)
                            for r in (*CALLER_ROOTS, "tests"))])
            for part in os.path.relpath(path, REPO_ROOT)[:-3].split(os.sep)}
        self._types: dict[int, frozenset | None] = {}
        self._mros: dict[str, list[str]] = {}
        self._found: dict[tuple[str, str], Def | None] = {}
        self._named: dict[tuple, list[tuple[Def, bool]]] = {}
        self._imported: dict[tuple, list[Def]] = {}
        self._parsed: dict[int, ast.AST] = {}  # string annotation -> AST

    # -- classes ------------------------------------------------------------

    def _mro(self, name: str) -> list[str]:
        """``name`` and its bases under the roots, depth first."""
        if name not in self._mros:
            out, todo = [], [name]
            while todo:
                n = todo.pop(0)
                if n in self.classes and n not in out:
                    out.append(n)
                    todo[:0] = [b for _, _, bases in self.classes[n]
                                for b in bases]
            self._mros[name] = out
        return self._mros[name]

    def family(self, name: str, subclasses: bool) -> list[str]:
        """``name``, and every class under the roots that derives from
        it when ``subclasses``."""
        out, todo = [], [name]
        while todo:
            n = todo.pop()
            if n not in out:
                out.append(n)
                todo += sorted(self.subclasses.get(n, ())) if subclasses else []
        return out

    def lookup(self, cls: str, name: str) -> Def | None:
        """The def ``cls().name`` runs: the first on ``cls``'s bases."""
        if (cls, name) not in self._found:
            self._found[cls, name] = next(
                (methods[name] for c in self._mro(cls)
                 for _, methods, _ in self.classes[c] if name in methods),
                None)
        return self._found[cls, name]

    def member(self, t: frozenset, name: str) -> list[tuple[Def, bool]]:
        """``(def, reached through the class object)`` of ``x.name`` for
        ``x`` of type ``t``."""
        return [(d, of_class) for cls, subclasses, of_class in t
                for c in self.family(cls, subclasses)
                for d in filter(None, [self.lookup(c, name)])]

    # -- what a name denotes ------------------------------------------------

    def foreign(self, payload: tuple) -> bool:
        """Whether an import binds something from outside the repo."""
        level, module, _ = payload
        return level == 0 and module.split(".")[0] not in self.local

    def denote(self, node: ast.AST, scope: Scope) -> list[tuple[Def, bool]]:
        """``(def, reached through the class object)`` of each def under
        the roots ``node`` may be."""
        if isinstance(node, ast.Attribute):
            t = self.type_of(node.value, scope)
            if t is None:
                return [(d, False) for d in (*self.members.get(node.attr, ()),
                                             *self.top.get(node.attr, ()))]
            return self.member(t, node.attr)
        if not isinstance(node, ast.Name):
            return []
        owner = scope.lookup(node.id)
        key = (id(owner), node.id)
        if key not in self._named:
            self._named[key] = self._bare(node.id, owner)
        return self._named[key]

    def _bare(self, name: str, owner: Scope | None) -> list[tuple[Def, bool]]:
        """The defs a bare name reaches: what each import that binds it in
        ``owner`` imports, and a def a function binds; every top-level def
        of the name where a module binds it otherwise, or nothing binds it
        (a builtin, a star import)."""
        if owner is None:
            return [(d, False) for d in self.top.get(name, ())]
        out: dict[int, Def] = {}
        for kind, p, _ in owner.binds[name]:
            if kind == "import":
                out.update((id(d), d) for d in self._imports(p, owner))
            elif owner.kind == "module":
                out.update((id(d), d) for d in self.top.get(name, ()))
            elif (kind == "def" and owner.kind == "function"
                  and id(p) in self.defs):
                out[id(p)] = self.defs[id(p)]
        return [(d, False) for d in out.values()]

    def _imports(self, payload: tuple, scope: Scope) -> list[Def]:
        """The defs under the roots ``from module import name`` binds in
        ``scope``'s file: the module's own top-level def of ``name``, or
        what the module imports as ``name``, followed.  Every top-level
        def of the name where the module is no file of the repo or binds
        no ``name`` (a lazy ``__getattr__`` export); none for a module
        from outside the repo or an ``import module``."""
        level, module, name = payload
        if self.foreign(payload) or name is None:
            return []
        key = (level, module, name, scope.file)
        if key not in self._imported:
            self._imported[key] = []  # a cycle reaches nothing more
            path = self._module_file(level, module, scope.file)
            binds = path and self.tree.read(path).scoped.module.binds.get(name)
            if not binds:
                found = list(self.top.get(name, ()))
            else:
                found = [d for kind, p, where in binds for d in (
                    self._imports(p, where) if kind == "import"
                    else [self.defs[id(p)]] if kind == "def"
                    and id(p) in self.defs else [])]
            self._imported[key] = found
        return self._imported[key]

    @staticmethod
    def _module_file(level: int, module: str, importer: str | None
                     ) -> str | None:
        """The file of ``module`` (``level`` dots before it) imported from
        ``importer``, if it is one in the repo; ``repro`` and ``tests``
        are the absolute roots."""
        parts = module.split(".") if module else []
        if level:
            if importer is None:
                return None
            base = os.path.dirname(importer)
            for _ in range(level - 1):
                base = os.path.dirname(base)
        elif parts[:1] == ["repro"]:
            base = os.path.join(REPO_ROOT, "src")
        elif parts[:1] == ["tests"]:
            base = REPO_ROOT
        else:
            return None
        stem = os.path.join(base, *parts)
        for path in (f"{stem}.py", os.path.join(stem, "__init__.py")):
            if os.path.isfile(path):
                return path
        return None

    def callee(self, call: ast.Call, scope: Scope) -> list[tuple[Def, int]]:
        """``(def, leading positionals it skips)`` each def a call may run:
        a class runs itself (its fields) and its ``__init__``, and
        ``C.m(obj, ...)`` passes ``self`` in the first position."""
        found = [*self.denote(call.func, scope), *(
            (d, False) for d in self._class_objects(call.func, scope))]
        out: dict[int, tuple[Def, int]] = {}
        for d, of_class in found:
            if isinstance(d.node, ast.ClassDef):
                init = self.lookup(d.name, "__init__")
                out.update({id(x.node): (x, 0) for x in filter(None, [d, init])})
            else:
                plain = d.cls is not None and not {
                    getattr(x, "id", None) for x in d.node.decorator_list} & {
                    "staticmethod", "classmethod"}
                out[id(d.node)] = (d, int(of_class and plain))
        return list(out.values())

    # -- the type of an expression ------------------------------------------

    def type_of(self, node: ast.AST, scope: Scope) -> frozenset | None:
        key = id(node)
        if key not in self._types:
            self._types[key] = None  # a cycle reads as unknown
            self._types[key] = self._type(node, scope)
        return self._types[key]

    def _type(self, node: ast.AST, scope: Scope) -> frozenset | None:
        if isinstance(node, ast.Name):
            owner = scope.lookup(node.id)
            if owner is None:
                if node.id in self.classes:
                    return frozenset({(node.id, False, True)})
                return FOREIGN if node.id in BUILTINS else None
            t = FOREIGN
            for kind, payload, where in owner.binds[node.id]:
                t = _union(t, self._binding(kind, payload, where))
            return t
        if isinstance(node, ast.Attribute):
            t = self.type_of(node.value, scope)
            return t and self._attr(t, node.attr)
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) == "super" and not node.args:
                cls = scope.method_class()
                if cls is None or id(cls) not in self.defs:
                    return None
                return frozenset((b, False, False) for b in _base_names(cls)
                                 if b in self.classes)
            found = [*self._certain(node.func, scope),
                     *self._class_objects(node.func, scope)]
            if found and all(isinstance(d.node, ast.ClassDef) for d in found):
                return frozenset((d.name, False, False) for d in found)
            return self._returns(found)
        if isinstance(node, ast.BoolOp):
            t = FOREIGN
            for value in node.values:
                t = _union(t, self.type_of(value, scope))
            return t
        if isinstance(node, ast.IfExp):
            return _union(self.type_of(node.body, scope),
                          self.type_of(node.orelse, scope))
        return FOREIGN if isinstance(node, LITERALS) else None

    def _class_objects(self, node: ast.AST, scope: Scope) -> list[Def]:
        """The classes a name holds as class objects (``cls``, an alias),
        each with its subclasses where the name may hold those too."""
        if not isinstance(node, ast.Name):
            return []
        return [d for cls, subclasses, of_class in (
            self.type_of(node, scope) or ()) if of_class
            for c in self.family(cls, subclasses)
            for d, _, _ in self.classes[c]]

    def _certain(self, node: ast.AST, scope: Scope) -> list[Def]:
        """The defs ``node`` is sure to be one of: a member of a known
        type, a top-level def of a module imported from the repo, or a
        name bound only by imports from the repo and defs under the
        roots."""
        if isinstance(node, ast.Attribute):
            t = self.type_of(node.value, scope)
            if t:
                return [d for d, _ in self.member(t, node.attr)]
            module = isinstance(node.value, ast.Name) and scope.lookup(
                node.value.id)
            if t is None and module and all(
                    kind == "import" and not self.foreign(p)
                    and p[2] not in self.classes
                    for kind, p, _ in module.binds[node.value.id]):
                return list(self.top.get(node.attr, ()))
            return []
        owner = isinstance(node, ast.Name) and scope.lookup(node.id)
        if owner and all(kind == "import" and p[2] and not self.foreign(p)
                         or kind == "def" and id(p) in self.defs
                         for kind, p, _ in owner.binds[node.id]):
            return [d for d, _ in self.denote(node, scope)]
        return []

    def _returns(self, defs: list[Def]) -> frozenset | None:
        """The type ``defs``' return annotations name, if all have one."""
        t = FOREIGN if defs else None
        for d in defs:
            t = _union(t, self.annotation(
                getattr(d.node, "returns", None), d.src.scoped.module))
        return t

    def _binding(self, kind: str, payload, where: Scope) -> frozenset | None:
        if kind == "self":
            cls, in_classmethod = payload
            return frozenset({(cls.name, True, in_classmethod)}) if id(
                cls) in self.defs else None
        if kind in ("param", "ann"):
            return self.annotation(payload, where.parent if kind == "param"
                                   else where)
        if kind == "assign":
            return None if payload is None else self.type_of(payload, where)
        if kind == "import":
            if self.foreign(payload):
                return FOREIGN
            return frozenset({(payload[2], False, True)}) if (
                payload[2] in self.classes) else None
        if isinstance(payload, ast.ClassDef) and id(payload) in self.defs:
            return frozenset({(payload.name, False, True)})
        return None

    def _attr(self, t: frozenset, name: str) -> frozenset | None:
        """The type of ``x.name`` for ``x`` of type ``t``: its annotation,
        or its one assignment, on every class ``x`` may be."""
        out = FOREIGN
        for cls, subclasses, of_class in t:
            if of_class:
                return None
            for c in self.family(cls, subclasses):
                records = [r for b in self._mro(c)
                           for r in self.attrs.get((b, name), ())]
                notes = [r for r in records if r[0] == "ann"]
                prop = self.lookup(c, name)
                if not records and prop and {
                        getattr(x, "id", None) or getattr(x, "attr", None)
                        for x in prop.node.decorator_list} & {
                        "property", "cached_property"}:
                    out = _union(out, self._returns([prop]))
                elif notes:
                    for _, note, where in notes:
                        out = _union(out, self.annotation(note, where))
                elif len(records) == 1:
                    out = _union(out, self._binding(*records[0]))
                else:
                    return None
        return out

    def annotation(self, node: ast.AST | None,
                   scope: Scope) -> frozenset | None:
        """The type an annotation names: a class under the roots and its
        subclasses (not a ``Protocol``, which none need derive from), or a
        foreign type."""
        if isinstance(node, ast.Constant):
            if node.value is None:
                return FOREIGN
            if id(node) not in self._parsed:
                try:
                    self._parsed[id(node)] = ast.parse(
                        node.value, mode="eval").body
                except (SyntaxError, TypeError, ValueError):
                    return None
            return self.annotation(self._parsed[id(node)], scope)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union(self.annotation(node.left, scope),
                          self.annotation(node.right, scope))
        if isinstance(node, ast.Subscript):
            head = getattr(node.value, "id", None) or getattr(
                node.value, "attr", None)
            args = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                    else [node.slice])
            if head in ("type", "Type"):
                return None
            if head in ("Optional", "Union"):
                t = FOREIGN
                for arg in args:
                    t = _union(t, self.annotation(arg, scope))
                return t
            base = self.annotation(node.value, scope)
            return FOREIGN if base == FOREIGN else None
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return None
        name, root = getattr(node, "id", None) or node.attr, node
        while isinstance(root, ast.Attribute):
            root = root.value
        owner = isinstance(root, ast.Name) and scope.lookup(root.id)
        if name in OPAQUE or owner and any(
                kind == "import" and p[1].split(".")[0] in TYPING
                for kind, p, _ in owner.binds[root.id]):
            return None
        t = self.type_of(node, scope)
        if t is None and isinstance(node, ast.Attribute):
            t = frozenset({(name, False, True)}) if (
                name in self.classes) else None
        if not t:
            return t
        if any(not of_class or "Protocol" in bases for cls, _, of_class in t
               for _, _, bases in self.classes[cls]):
            return None
        return frozenset((cls, True, False) for cls, _, _ in t)


OPTION_CLASS = re.compile(r"(Config|Policy)$|^FaultPlan$")


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
    the :class:`Resolver` says may run its def (a class runs its
    ``__init__``, inherited or reached by ``super().__init__``,
    ``Base.__init__(self, ...)`` or ``cls(...)``).  A call with ``*args``
    or ``**kwargs`` sets every parameter, and so does naming a def as a
    value (``run(check)``, ``partial(self._step)``): whatever calls it may
    pass anything."""
    resolver = tree.resolver
    #: class -> (its site, [(field, at)]); a site is ``path::qualname``
    declared: dict[str, tuple[str, list[tuple[str, str]]]] = {}
    #: ``id`` of a def -> (site, positional parameter names, [(defaulted
    #: parameter, at)])
    sigs: dict[int, tuple] = {}
    for d in resolver.defs.values():
        node, at = d.node, d.rel
        if isinstance(node, ast.ClassDef):
            if OPTION_CLASS.search(d.name) and any(
                    "dataclass" in ast.unparse(x) for x in node.decorator_list):
                declared[d.name] = (f"{d.module}::{d.name}", [
                    (stmt.target.id, f"{at}:{stmt.lineno}")
                    for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)])
            continue
        decorators = {getattr(x, "id", None) for x in node.decorator_list}
        args = node.args
        positional = [*args.posonlyargs, *args.args][
            d.cls is not None and "staticmethod" not in decorators:]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
        qual = (d.qual.removesuffix(".__init__") if d.cls is not None
                and d.name == "__init__" else d.qual)
        sigs[id(node)] = (f"{d.module}::{qual}", [a.arg for a in positional],
                          [(a.arg, f"{at}:{a.lineno}") for a in defaulted])

    production = set(iter_python_files(tree.roots + [
        os.path.join(REPO_ROOT, d) for d in CALLER_ROOTS]))
    setters: dict[tuple[str, str], bool] = {}  # -> set by production code?
    paths = dict.fromkeys([*production, *iter_python_files(
        [os.path.join(REPO_ROOT, "tests")])])
    n_resolved = n_sites = 0
    for src in tree.parsed(paths):
        scoped, hits = src.scoped, []
        for node, scope in scoped.calls:
            func = node.func
            keywords = [kw.arg for kw in node.keywords if kw.arg]
            n_pos = next((i for i, a in enumerate(node.args)
                          if isinstance(a, ast.Starred)), len(node.args))
            every = (n_pos < len(node.args)
                     or len(keywords) < len(node.keywords))
            if isinstance(func, ast.Attribute):
                n_sites += 1
                n_resolved += resolver.type_of(func.value, scope) is not None
            if (getattr(func, "id", None) or getattr(func, "attr", None)
                    ) == "replace":
                hits += [(site, f) for site, fields in declared.values()
                         for f, _ in fields if f in keywords]
            for d, skip in resolver.callee(node, scope):
                if d.name in declared and isinstance(d.node, ast.ClassDef):
                    site, fields = declared[d.name]
                    hits += [(site, f) for f in
                             [f for f, _ in fields][:n_pos] + keywords]
                if id(d.node) in sigs:
                    site, positional, params = sigs[id(d.node)]
                    covered = {*positional[:max(n_pos - skip, 0)], *keywords}
                    hits += [(site, p) for p, _ in params
                             if every or p in covered]
        # A def named as a value — not called, not an attribute's owner.
        for node, scope in scoped.sites:
            if (isinstance(node.ctx, ast.Load) and id(node) not in
                    scoped.called and id(node) not in scoped.receivers):
                hits += [(sigs[id(d.node)][0], p)
                         for d, _ in resolver.denote(node, scope)
                         if id(d.node) in sigs
                         for p, _ in sigs[id(d.node)][2]]
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

    n_deployment = judge(DEPLOYMENT, "DEPLOYMENT", "field",
                         declared.values())
    n_seams = judge(SEAMS, "SEAMS", "parameter",
                    [(site, params) for site, _, params in sigs.values()])
    return found, (f"options: {sum(len(f) for _, f in declared.values())} "
                   f"fields ({n_deployment} deployment), "
                   f"{sum(len(s[2]) for s in sigs.values())} parameters "
                   f"({n_seams} seams; {n_resolved} of {n_sites} attribute "
                   "calls resolved)")


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
    and strings do not count — or is a ``PROBES`` target.  A name counts
    for each def the :class:`Resolver` says it may be: ``x.name`` for a
    method of ``x``'s class (any def of that name when ``x``'s type is not
    known), a bare ``name`` only for a top-level def, and not where the
    name is bound in its own function."""
    resolver, named = tree.resolver, set()
    n_resolved = n_sites = 0
    for src in tree.production:
        for node, scope in src.scoped.sites:
            named.update(id(d.node) for d, _ in resolver.denote(node, scope))
            if isinstance(node, ast.Attribute):
                n_sites += 1
                n_resolved += resolver.type_of(node.value, scope) is not None
    probes = _probe_names(tree)
    found = [f"{src.rel}:{node.lineno}: {qualname} has no caller outside "
             "tests (delete it, or call it from production code)"
             for src in tree.files for qualname, node in _defs(src.tree)
             if id(node) not in named and qualname not in probes]
    return found, (f"dead names: {len(found)} flagged ({n_resolved} of "
                   f"{n_sites} attribute sites resolved)")


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
    ("no-global", lambda tree: _per_file(tree, "check_no_global",
                                         global_statements)),
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
    # A run allocates a few million AST and scope objects and frees them
    # only at exit: the cyclic collector would re-walk them for nothing.
    gc.disable()
    sys.exit(main(sys.argv[1:]))
