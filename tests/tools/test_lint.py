"""Unit tests for the repo lint (``tools/lint.py``): its one walk, each row
of its rule table, and the entry point."""

import functools
import os
import sys

import pytest

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tools")
sys.path.insert(0, TOOLS_DIR)

import lint  # noqa: E402


#: The repository the lint checks by default.
REPO_ROOT = lint.REPO_ROOT


@functools.lru_cache(maxsize=None)
def _repo_tree():
    """``src/repro`` read, parsed and tokenized once per session (a
    :class:`lint.Tree` caches every file it has read)."""
    return lint.Tree([lint._src()])


#: Every file any case has read, by ``(path, mtime, size)``: the rules
#: that scan the callers (``options``, ``dead-names``) read the repo's
#: production files and tests whatever tree a case lints.
_SOURCES = {}


@pytest.fixture(autouse=True)
def _read_each_file_once(monkeypatch):
    source = lint.Source

    def cached(path):
        stat = os.stat(path)
        key = (path, stat.st_mtime_ns, stat.st_size, lint.REPO_ROOT)
        if key not in _SOURCES:
            _SOURCES[key] = source(path)
        return _SOURCES[key]

    monkeypatch.setattr(lint, "Source", cached)


def run_rule(name, *roots):
    """``(findings, summary)`` of one row of ``lint.RULES`` over ``roots``
    (default: ``src/repro`` — the session's tree, unless a case points
    ``lint.REPO_ROOT`` at a repository of its own)."""
    if roots or lint.REPO_ROOT != REPO_ROOT:
        tree = lint.Tree([str(root) for root in roots] or [lint._src()])
    else:
        tree = _repo_tree()
    return dict(lint.RULES)[name](tree)


@pytest.fixture
def tree(tmp_path):
    """A small package tree with one clean file, one print() offender,
    one bare-except offender, and an exempt subdirectory."""
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "exempt").mkdir()
    (pkg / "clean.py").write_text(
        '"""print( in a docstring is fine."""\n'
        "# print(also in a comment)\n"
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except ValueError:\n"
        "        return 0\n")
    (pkg / "sub" / "printer.py").write_text(
        "def g():\n"
        "    print('hot path')\n")
    (pkg / "sub" / "swallow.py").write_text(
        "def h():\n"
        "    try:\n"
        "        return 1\n"
        "    except:\n"
        "        return 0\n")
    (pkg / "sub" / "eater.py").write_text(
        "def i():\n"
        "    try:\n"
        "        return 1\n"
        "    except ValueError:\n"
        "        pass\n")
    (pkg / "exempt" / "printer.py").write_text("print('allowed here')\n")
    (pkg / "notes.txt").write_text("print( except: — not python\n")
    return pkg


class TestWalklib:
    """The lint's one walk over the tree."""

    def test_yields_only_python_sorted(self, tree):
        files = list(lint.iter_python_files([str(tree)]))
        names = [os.path.relpath(f, str(tree)) for f in files]
        assert names == sorted(names)
        assert all(n.endswith(".py") for n in names)
        assert os.path.join("sub", "printer.py") in names

    def test_exempt_dirs_skipped(self, tmp_path, monkeypatch):
        """``print(`` is library output everywhere but ``src/repro/obs``."""
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        pkg = tmp_path / "src" / "repro"
        (pkg / "obs").mkdir(parents=True)
        (pkg / "obs" / "export.py").write_text("print('allowed here')\n")
        (pkg / "hot.py").write_text("print('not here')\n")
        assert run_rule("no-print")[0] == [
            os.path.join("src", "repro", "hot.py")
            + ":1: print() call (route output through repro.obs)"]

    def test_resolve_roots_rejects_missing(self, tree, capsys):
        assert lint.main([str(tree / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestCheckNoPrint:
    def test_finds_offender_not_docstrings(self, tree):
        found = "\n".join(run_rule("no-print", tree / "sub")[0])
        assert "printer.py:2" in found and "clean.py" not in found

    def test_clean_tree_passes(self, tree):
        (tree / "sub" / "printer.py").unlink()
        assert run_rule("no-print", tree / "sub") == (
            [], "check_no_print: OK (1 root)")

    def test_repo_src_is_clean(self):
        assert run_rule("no-print")[0] == []


class TestCheckBareExcept:
    def test_finds_offender_not_typed_handlers(self, tree):
        found = "\n".join(run_rule("bare-except", tree)[0])
        assert "swallow.py:4" in found and "clean.py" not in found

    def test_clean_tree_passes(self, tree):
        (tree / "sub" / "swallow.py").unlink()
        (tree / "sub" / "eater.py").unlink()
        assert run_rule("bare-except", tree)[0] == []

    def test_repo_src_is_clean(self):
        assert run_rule("bare-except")[0] == []

    def test_except_pass_flagged(self, tree):
        """A typed handler whose whole body is ``pass`` destroys the
        fault's evidence — flagged even though the except is not bare."""
        found = "\n".join(run_rule("bare-except", tree)[0])
        assert "eater.py:4: except ...: pass" in found

    def test_handlers_that_handle_are_fine(self, tree):
        """pass inside a *larger* handler body (evidence kept) and
        handlers that log/return are not flagged."""
        good = tree / "sub" / "good.py"
        good.write_text(
            "import sys\n"
            "def j():\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError as exc:\n"
            "        sys.stderr.write(repr(exc))\n"
            "        pass\n")
        assert lint.bare_excepts(lint.Source(str(good))) == []
        bad = lint.Source(str(tree / "sub" / "eater.py"))
        assert [line for line, _ in lint.bare_excepts(bad)] == [4]

    def test_unparseable_file_is_skipped(self, tmp_path):
        """No rule sees a file that does not parse: the walk reports it."""
        (tmp_path / "broken.py").write_text("def (:\n")
        tree = lint.Tree([str(tmp_path)])
        assert tree.files == []
        assert dict(lint.RULES)["bare-except"](tree)[0] == []
        assert list(tree.broken) == [str(tmp_path / "broken.py")]


class TestLintEntrypoint:
    def test_fails_if_any_checker_fails(self, tree, capsys):
        assert lint.main([str(tree)]) == 1
        assert "FAILED: no-print, bare-except" in capsys.readouterr().err

    def test_passes_on_clean_tree(self, tree, capsys):
        # The obs exemption is specific to src/repro/obs: in an arbitrary
        # tree every file is checked.  The caller keeps ``f`` alive.
        for name in ("sub/printer.py", "sub/swallow.py", "sub/eater.py",
                     "exempt/printer.py"):
            (tree / name).unlink()
        (tree / "caller.py").write_text("from clean import f\n\nf()\n")
        assert lint.main([str(tree)]) == 0
        assert capsys.readouterr().out.endswith("lint: OK (8 rules)\n")

    def test_registry_covers_every_checker(self):
        assert [name for name, _ in lint.RULES] == [
            "no-print", "bare-except", "metric-names", "seeded-rng",
            "clones", "options", "dead-names", "no-global"]

    def test_unparseable_file_is_one_finding(self, tmp_path, capsys):
        """``def f(:`` is one finding and exit 1: not a traceback, and not
        a file some rules pass."""
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "draws.py").write_text("import random\n")
        assert lint.main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        broken = os.path.relpath(str(tmp_path / "broken.py"), lint.REPO_ROOT)
        assert f"{broken}:1: does not parse: " in err
        assert err.count("broken.py") == 1 and "Traceback" not in err
        assert "draws.py:1: import random" in err
        assert err.endswith("lint: FAILED: seeded-rng, parse\n")


class TestCheckSeededRng:
    def test_flags_random_module_imports(self, tmp_path):
        (tmp_path / "uses_random.py").write_text(
            "import random\n"
            "from random import choice\n"
            "def f():\n"
            "    return random.random() + len(str(choice([1])))\n")
        found = "\n".join(run_rule("seeded-rng", tmp_path)[0])
        assert "uses_random.py:1" in found and "uses_random.py:2" in found

    def test_flags_global_numpy_generator(self, tmp_path):
        (tmp_path / "legacy_np.py").write_text(
            "import numpy as np\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    return np.random.rand(3)\n")
        found = "\n".join(run_rule("seeded-rng", tmp_path)[0])
        assert "legacy_np.py:3" in found and "legacy_np.py:4" in found

    def test_seeded_constructs_pass(self, tmp_path):
        (tmp_path / "seeded.py").write_text(
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    gen = np.random.Generator(np.random.PCG64(seed))\n"
            "    return rng.random() + gen.random()\n")
        assert run_rule("seeded-rng", tmp_path)[0] == []

    def test_word_random_in_other_contexts_is_fine(self, tmp_path):
        (tmp_path / "mentions.py").write_text(
            '"""import random would be bad."""\n'
            "# np.random.rand in a comment\n"
            "def f(rng):\n"
            "    return rng.random()\n")
        assert run_rule("seeded-rng", tmp_path)[0] == []

    def test_unparseable_file_is_skipped(self, tmp_path):
        (tmp_path / "broken.py").write_text("def (:\n")
        tree = lint.Tree([str(tmp_path)])
        assert dict(lint.RULES)["seeded-rng"](tree)[0] == []
        assert list(tree.broken) == [str(tmp_path / "broken.py")]

    def test_repo_src_is_clean(self):
        assert run_rule("seeded-rng")[0] == []


class TestCheckNoGlobal:
    def test_global_statement_is_flagged(self, tmp_path):
        (tmp_path / "switch.py").write_text(
            '"""A global switch."""\n'
            "_ON = False\n"
            "\n"
            "def turn_on():\n"
            "    global _ON\n"
            "    _ON = True\n")
        assert run_rule("no-global", tmp_path) == (
            [os.path.relpath(str(tmp_path / "switch.py"), lint.REPO_ROOT)
             + ":5: global statement (hold the state in a ContextVar, set "
             "it with repro.scoped)"], "check_no_global: OK (1 root)")

    def test_rows_module_is_not_exempt(self, tmp_path, monkeypatch):
        """``rows.py`` is held to the rule like any other file."""
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "rows.py").write_text("_ON = None\n\ndef on():\n"
                                     "    global _ON\n")
        assert run_rule("no-global")[0] == [
            os.path.join("src", "repro", "rows.py")
            + ":4: global statement (hold the state in a ContextVar, set "
            "it with repro.scoped)"]

    def test_repo_src_is_clean(self):
        assert run_rule("no-global")[0] == []


class TestCheckClones:
    @staticmethod
    def _block(n, comment=False):
        return "".join(f"{'# ' if comment else ''}v{i} = compute({i})\n"
                       for i in range(n))

    def test_copied_block_fails_where_it_starts(self, tmp_path):
        (tmp_path / "a.py").write_text("import x\n" + self._block(10))
        # re-indented, re-commented and spread out, but the same 10 lines
        copy = "def f():\n" + "".join(
            f"    {line}\n\n    # again\n"
            for line in self._block(10).splitlines())
        (tmp_path / "b.py").write_text(copy)
        found = run_rule("clones", tmp_path)[0]
        assert len(found) == 1  # one long copy, one report
        assert "b.py:2:" in found[0] and found[0].endswith("a.py:2")

    def test_seven_lines_pass(self, tmp_path):
        (tmp_path / "a.py").write_text("import x\n" + self._block(7))
        (tmp_path / "b.py").write_text("import y\n" + self._block(7)
                                       + "done = True\n")
        assert run_rule("clones", tmp_path)[0] == []

    def test_block_repeated_only_in_comments_passes(self, tmp_path):
        (tmp_path / "a.py").write_text(self._block(10, comment=True)
                                       + "a = 1\n")
        (tmp_path / "b.py").write_text(self._block(10, comment=True)
                                       + "b = 2\n")
        assert run_rule("clones", tmp_path)[0] == []

    def test_repo_src_is_clean(self):
        assert run_rule("clones")[0] == []


class TestCheckOptions:
    """An option is a field somebody sets (field names here are ones no
    ``replace(...)`` in the repo could name: setters match by name)."""

    DECLARED = ("from dataclasses import dataclass, replace\n"
                "@dataclass(frozen=True)\n"
                "class XConfig:\n"
                "    knob_a: int = 1\n"
                "    knob_b: int = 2\n")

    def test_field_nobody_sets_fails_until_it_is_a_constant(self, tmp_path):
        (tmp_path / "x.py").write_text(self.DECLARED
                                       + "cfg = XConfig(knob_a=3)\n")
        found = "\n".join(run_rule("options", tmp_path)[0])
        assert "x.py:5: XConfig.knob_b has no setter" in found
        assert "knob_a" not in found
        (tmp_path / "x.py").write_text(
            self.DECLARED.replace("    knob_b: int = 2\n", "")
            + "KNOB_B = 2\ncfg = XConfig(knob_a=3)\n")
        found, summary = run_rule("options", tmp_path)
        assert found == [] and summary.startswith("options: 1 fields")

    def test_positional_and_replace_count_as_setters(self, tmp_path):
        (tmp_path / "x.py").write_text(
            self.DECLARED + "cfg = replace(XConfig(3), knob_b=4)\n")
        assert run_rule("options", tmp_path)[0] == []

    def test_double_star_kwargs_set_nothing(self, tmp_path):
        (tmp_path / "x.py").write_text(
            self.DECLARED + "cfg = XConfig(**{'knob_a': 1, 'knob_b': 2})\n")
        found = run_rule("options", tmp_path)[0]
        assert len(found) == 2 and all("has no setter" in f for f in found)

    def test_repo_options_all_have_setters_and_stay_counted(self):
        found, summary = run_rule("options")
        assert found == []
        words = summary.split()
        assert int(words[1]) <= 77  # 143 once; do not regrow
        assert int(words[5]) <= 273  # 341 once; do not regrow
        assert summary.startswith(
            f"options: {words[1]} fields ({len(lint.DEPLOYMENT)} deployment), "
            f"{words[5]} parameters ({len(lint.SEAMS)} seams; ")
        assert summary.endswith(" attribute calls resolved)")


class TestTestsOnlyOptions:
    """A field only tests set is a constant in waiting; production means
    the roots plus ``CALLER_ROOTS``, and ``DEPLOYMENT`` names the site
    capacities that stay settable anyway."""

    MOD = os.path.join("src", "repro", "cfg.py")
    SUMMARY = ("options: 2 fields ({} deployment), 0 parameters (0 seams; "
               "0 of 0 attribute calls resolved)")

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(lint, "DEPLOYMENT", {})
        monkeypatch.setattr(lint, "SEAMS", {})
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "cfg.py").write_text(TestCheckOptions.DECLARED
                                    + "cfg = XConfig(knob_a=3)\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_cfg.py").write_text(
            "from repro.cfg import XConfig\n\nXConfig(knob_b=5)\n")
        return tmp_path

    def test_field_set_only_by_tests_is_flagged(self, repo):
        assert run_rule("options") == (
            [f"{self.MOD}:5: XConfig.knob_b is set only by tests — make it "
             "a constant"], self.SUMMARY.format(0))

    def test_one_production_setter_clears_it(self, repo):
        (repo / "examples").mkdir()
        (repo / "examples" / "demo.py").write_text(
            "from repro.cfg import XConfig\n\nXConfig(1, 2)\n")
        assert run_rule("options") == ([], self.SUMMARY.format(0))

    def test_deployment_entry_exempts_it(self, repo, monkeypatch):
        monkeypatch.setattr(lint, "DEPLOYMENT", {
            "cfg.py::XConfig.knob_b": "a site's capacity; tests/test_cfg.py"})
        assert run_rule("options") == ([], self.SUMMARY.format(1))

    def test_stale_deployment_entry_is_a_finding(self, repo, monkeypatch):
        monkeypatch.setattr(lint, "DEPLOYMENT", {
            "cfg.py::XConfig.knob_a": "stale: cfg.py sets it",
            "cfg.py::XConfig.knob_b": "a site's capacity",
            "cfg.py::XConfig.gone": "stale: no such field"})
        assert run_rule("options") == (
            [f"{self.MOD}:4: DEPLOYMENT entry XConfig.knob_a has a "
             "production setter now (drop the entry)",
             f"{self.MOD}:1: DEPLOYMENT entry XConfig.gone names no field"],
            self.SUMMARY.format(2))


class TestTestsOnlyParameters:
    """A defaulted ``__init__`` parameter is an option too: production
    must pass it somewhere, or ``SEAMS`` names the test seam it is."""

    MOD = os.path.join("src", "repro", "eng.py")
    ENGINE = ("class Engine:\n"
              "    def __init__(self, size, knob=1, *, clock=None):\n"
              "        self.size, self.knob, self.clock = size, knob, clock\n"
              "\n"
              "    @classmethod\n"
              "    def small(cls):\n"
              "        return cls(1)\n")

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(lint, "DEPLOYMENT", {})
        monkeypatch.setattr(lint, "SEAMS", {})
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "eng.py").write_text(self.ENGINE)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_eng.py").write_text(
            "from repro.eng import Engine\n\n"
            "Engine(2, knob=3, clock=lambda: 0.0)\n")
        (tmp_path / "examples").mkdir()
        return tmp_path

    @staticmethod
    def found():
        """The options findings, ``path:line: `` stripped."""
        return [f.split(": ", 1)[1] for f in run_rule("options")[0]]

    def test_parameter_set_only_by_tests_is_flagged(self, repo):
        assert self.found() == [
            "Engine.knob is set only by tests — make it a constant",
            "Engine.clock is set only by tests — make it a constant"]
        (repo / "tests" / "test_eng.py").write_text("")
        assert self.found() == [
            "Engine.knob has no setter — make it a constant",
            "Engine.clock has no setter — make it a constant"]

    def test_keyword_and_position_clear_it(self, repo):
        (repo / "examples" / "demo.py").write_text(
            "from repro.eng import Engine\n\n"
            "Engine(2, 5)\nEngine(size=2, clock=None)\n")
        assert self.found() == []

    def test_a_call_of_cls_in_a_classmethod_counts(self, repo):
        (repo / "src" / "repro" / "eng.py").write_text(self.ENGINE.replace(
            "cls(1)", "cls(1, clock=None)"))
        assert self.found() == [
            "Engine.knob is set only by tests — make it a constant"]

    def test_super_init_in_a_subclass_clears_it(self, repo):
        (repo / "examples" / "demo.py").write_text(
            "from repro.eng import Engine\n\n"
            "class Fast(Engine):\n"
            "    def __init__(self):\n"
            "        super().__init__(2, 7, clock=None)\n")
        assert self.found() == []

    def test_a_subclass_that_inherits_init_is_a_call_of_it(self, repo):
        (repo / "src" / "repro" / "fast.py").write_text(
            "from .eng import Engine\n\n\nclass Fast(Engine):\n"
            "    pass\n\n\nFAST = Fast(2, knob=4, clock=None)\n")
        assert self.found() == []

    def test_star_kwargs_set_every_parameter(self, repo):
        (repo / "examples" / "demo.py").write_text(
            "from repro.eng import Engine\n\n"
            "def build(**kw):\n    return Engine(2, **kw)\n")
        assert self.found() == []

    def test_seams_entry_exempts_it(self, repo, monkeypatch):
        monkeypatch.setattr(lint, "SEAMS", {
            "eng.py::Engine.clock": "a stepping clock; tests/test_eng.py"})
        assert self.found() == [
            "Engine.knob is set only by tests — make it a constant"]
        assert ", 2 parameters (1 seams; " in run_rule("options")[1]

    def test_stale_seams_entry_is_a_finding(self, repo, monkeypatch):
        (repo / "examples" / "demo.py").write_text(
            "from repro.eng import Engine\n\nEngine(2, knob=5)\n")
        monkeypatch.setattr(lint, "SEAMS", {
            "eng.py::Engine.knob": "stale: examples/demo.py sets it",
            "eng.py::Engine.clock": "a stepping clock",
            "eng.py::Engine.gone": "stale: no such parameter"})
        assert run_rule("options")[0] == [
            f"{self.MOD}:2: SEAMS entry Engine.knob has a production "
            "setter now (drop the entry)",
            f"{self.MOD}:1: SEAMS entry Engine.gone names no parameter"]



class TestDefParameters:
    """Every defaulted parameter of every def is an option too, resolved
    by name: a call of any def of that name may set it."""

    MOD = os.path.join("src", "repro", "fns.py")
    FNS = ("def scale(x, factor=2.0):\n"
           "    return x * factor\n"
           "\n"
           "\n"
           "class Grid:\n"
           "    def select(self, kind=None, *, limit=10):\n"
           "        return kind, limit\n"
           "\n"
           "\n"
           "class Tracer:\n"
           "    def select(self, category=None):\n"
           "        return category\n")
    #: ``Grid().select(...)`` in the test reaches ``Grid.select`` only.
    SET_BY_TESTS = [f"{name} is set only by tests — make it a constant"
                    for name in ("scale.factor", "Grid.select.kind",
                                 "Grid.select.limit")] + [
        "Tracer.select.category has no setter — make it a constant"]

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(lint, "DEPLOYMENT", {})
        monkeypatch.setattr(lint, "SEAMS", {})
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "fns.py").write_text(self.FNS)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_fns.py").write_text(
            "from repro.fns import Grid, scale\n\n"
            "scale(1, factor=3)\nGrid().select('a', limit=2)\n")
        (tmp_path / "examples").mkdir()
        return tmp_path

    @staticmethod
    def found():
        """The options findings, ``path:line: `` stripped."""
        return [f.split(": ", 1)[1] for f in run_rule("options")[0]]

    def test_parameter_set_only_by_a_test_is_a_finding(self, repo):
        assert self.found() == self.SET_BY_TESTS
        assert ", 4 parameters (0 seams; " in run_rule("options")[1]
        (repo / "tests" / "test_fns.py").write_text("")
        assert self.found()[-1] == (
            "Tracer.select.category has no setter — make it a constant")

    def test_a_def_passed_by_reference_counts_as_set(self, repo):
        demo = repo / "examples" / "demo.py"
        demo.write_text("from repro.fns import scale\n\n"
                        "doubled = list(map(scale, [1, 2]))\n")
        assert self.found() == self.SET_BY_TESTS[1:]
        demo.write_text("import functools\n\n\ndef bind(grid):\n"
                        "    return functools.partial(grid.select)\n")
        assert self.found() == self.SET_BY_TESTS[:1]

    def test_a_double_star_kwargs_call_counts_as_set(self, repo):
        (repo / "examples" / "demo.py").write_text(
            "from repro.fns import scale\n\n\ndef run(**kw):\n"
            "    return scale(1, **kw)\n")
        assert self.found() == self.SET_BY_TESTS[1:]

    def test_a_shared_method_name_resolves_conservatively(self, repo):
        """``tracer.select('x')`` may be either ``select``: it sets the
        first positional parameter of both."""
        (repo / "examples" / "demo.py").write_text(
            "def first(tracer):\n    return tracer.select('x')\n")
        assert self.found() == [self.SET_BY_TESTS[0],
                                self.SET_BY_TESTS[2]]

    def test_stale_seams_entry_is_a_finding(self, repo, monkeypatch):
        (repo / "examples" / "demo.py").write_text(
            "from repro.fns import scale\n\nscale(1, 4.0)\n")
        monkeypatch.setattr(lint, "SEAMS", {
            "fns.py::scale.factor": "stale: examples/demo.py sets it",
            "fns.py::Tracer.select.category": "a seam; tests/test_fns.py",
            "fns.py::scale.gone": "stale: no such parameter"})
        assert run_rule("options") == (
            [f"{self.MOD}:1: SEAMS entry scale.factor has a production "
             "setter now (drop the entry)",
             f"{self.MOD}:6: Grid.select.kind is set only by tests — make "
             "it a constant",
             f"{self.MOD}:6: Grid.select.limit is set only by tests — make "
             "it a constant",
             f"{self.MOD}:1: SEAMS entry scale.gone names no parameter"],
            "options: 0 fields (0 deployment), 4 parameters (2 seams; "
            "1 of 1 attribute calls resolved)")


class TestReceivers:
    """``x.m`` reaches a def through the class of ``x`` where that is
    cheap and certain to know; both rules read the one resolver."""

    MOD = os.path.join("src", "repro", "two.py")
    TWO = ("class Grid:\n"
           "    def select(self, kind=None):\n"
           "        return kind\n"
           "\n"
           "\n"
           "class Tracer:\n"
           "    def select(self, category=None):\n"
           "        return category\n"
           "\n"
           "\n"
           "class Base:\n"
           "    def helper(self, n=1):\n"
           "        return n\n"
           "\n"
           "\n"
           "class Leaf(Base):\n"
           "    def run(self):\n"
           "        return self.helper(2)\n"
           "\n"
           "\n"
           "class Other:\n"
           "    def helper(self, n=1):\n"
           "        return n\n"
           "\n"
           "\n"
           "def ones(shape, fill=1.0):\n"
           "    return [fill] * shape\n")

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(lint, "DEPLOYMENT", {})
        monkeypatch.setattr(lint, "SEAMS", {})
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "two.py").write_text(self.TWO)
        (tmp_path / "examples").mkdir()
        return tmp_path

    def demo(self, repo, code):
        """Production code ``code`` beside a call of everything but the
        ``select`` methods and ``ones``; the dead names it leaves."""
        (repo / "examples" / "demo.py").write_text(
            "from repro.two import Grid, Leaf, Other, Tracer, ones\n\n"
            "Leaf().run()\nOther, Grid, Tracer\n" + code)
        return [f.split(": ")[1].split()[0]
                for f in run_rule("dead-names")[0]]

    @pytest.mark.parametrize("code", [
        "def run():\n    grid = Grid()\n    return grid.select('x')\n",
        "def run(grid: Grid):\n    return grid.select('x')\n",
        "def run(grid: 'Grid | None'):\n    return grid.select('x')\n",
    ], ids=["constructed-local", "annotated-parameter", "string-annotation"])
    def test_a_shared_name_resolves_by_receiver(self, repo, code):
        assert self.demo(repo, code) == ["Tracer.select", "Other.helper",
                                         "ones"]

    def test_self_reaches_its_own_class_only(self, repo):
        (repo / "src" / "repro" / "two.py").write_text(self.TWO.replace(
            "        return category\n",
            "        return category\n\n"
            "    def first(self):\n        return self.select()\n"))
        assert self.demo(repo, "Tracer().first()\n") == [
            "Grid.select", "Other.helper", "ones"]

    def test_an_inherited_method_is_reached_through_self(self, repo):
        """``self.helper`` in ``Leaf`` is ``Base.helper``: ``Other.helper``
        stays dead, and only ``Base.helper.n`` is set."""
        assert "Other.helper" in self.demo(repo, "")
        assert "Base.helper" not in self.demo(repo, "")
        found = "\n".join(run_rule("options")[0])
        assert "Base.helper.n" not in found
        assert "Other.helper.n has no setter" in found

    def test_a_numpy_attribute_reaches_no_repro_def(self, repo):
        """``np.ones(3, 2.0)`` neither keeps ``ones`` alive nor sets its
        ``fill``."""
        code = "import numpy as np\n\nnp.ones(3, 2.0)\n"
        assert self.demo(repo, code)[-1] == "ones"
        (repo / "examples" / "demo.py").write_text(
            "import numpy as np\nfrom repro.two import ones\n\n"
            "np.ones(3, 2.0)\nones(3)\n")
        assert "ones.fill has no setter" in "\n".join(
            run_rule("options")[0])

    def test_a_local_binding_shadows_a_top_level_def(self, repo):
        code = "def run():\n    ones = [1.0]\n    return ones\n"
        assert self.demo(repo, code)[-1] == "ones"
        assert self.demo(repo, "ones(3)\n")[-1] != "ones"

    def test_an_unknown_receiver_stays_conservative(self, repo):
        """An unannotated parameter may be any class: both ``select``
        methods live, and the summary counts ``x.select`` unresolved
        (``self.helper`` and ``Leaf().run`` are resolved)."""
        assert self.demo(repo, "def run(x):\n    return x.select()\n") == [
            "Other.helper", "ones"]
        assert run_rule("dead-names")[1] == (
            "dead names: 2 flagged (2 of 3 attribute sites resolved)")


class TestDeadNames:
    """A def that nothing outside tests names is a finding, unless
    ``PROBES`` patches it by name."""

    MOD = os.path.join("src", "repro", "mod.py")

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "def lonely():\n"
            "    return 1\n"
            "\n"
            "\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "\n"
            "    def probed(self):\n"
            "        return helper()\n"
            "\n"
            "\n"
            "def helper():\n"
            "    return Engine()\n")
        (tmp_path / "bench_e2e").mkdir()
        (tmp_path / "bench_e2e" / "trace.py").write_text(
            "PROBES: tuple = (\n"
            "    Probe('repro.mod', 'Engine.probed', 'engine.probed', 'x'),\n"
            ")\n")
        return tmp_path

    def test_callerless_def_is_flagged(self, repo):
        assert run_rule("dead-names") == (
            [f"{self.MOD}:1: lonely has no caller outside tests (delete it, "
             "or call it from production code)"],
            "dead names: 1 flagged (1 of 1 attribute sites resolved)")

    def test_def_called_only_from_tests_is_flagged(self, repo):
        """No table exempts a def: a test's call is not traffic."""
        (repo / "tests").mkdir()
        (repo / "tests" / "test_mod.py").write_text(
            "from repro import mod\n\nmod.lonely()\n")
        assert run_rule("dead-names")[0] == [
            f"{self.MOD}:1: lonely has no caller outside tests (delete it, "
            "or call it from production code)"]
        assert not hasattr(lint, "KEEP")

    def test_attribute_use_elsewhere_keeps_def_live(self, repo):
        (repo / "examples").mkdir()
        (repo / "examples" / "demo.py").write_text(
            "def run(obj):\n    return obj.lonely()\n")
        assert run_rule("dead-names") == (
            [], "dead names: 0 flagged (1 of 2 attribute sites resolved)")

    def test_same_named_local_keeps_no_method_alive(self, repo):
        """A bare name credits a top-level def, never a method: a local
        ``probed`` leaves ``Engine.probed`` dead, ``obj.probed`` revives
        it."""
        (repo / "bench_e2e" / "trace.py").write_text("PROBES: tuple = ()\n")
        (repo / "examples").mkdir()
        demo = repo / "examples" / "demo.py"
        demo.write_text("probed = 1\nlonely = probed\n")
        assert [f.split(": ")[1].split()[0]
                for f in run_rule("dead-names")[0]] == ["Engine.probed"]
        demo.write_text("def run(obj):\n    return obj.probed()\n")
        assert [f.split(": ")[1].split()[0]
                for f in run_rule("dead-names")[0]] == ["lonely"]

    def test_an_imported_name_reaches_its_modules_def_only(self, repo):
        """``from repro.other import lonely`` keeps ``other.lonely`` alive,
        not ``mod.lonely``; a re-export is followed to the def it names."""
        pkg = repo / "src" / "repro"
        (pkg / "other.py").write_text("def lonely():\n    return 2\n")
        (repo / "examples").mkdir()
        demo = repo / "examples" / "demo.py"
        demo.write_text("from repro.other import lonely\n\nlonely()\n")
        assert run_rule("dead-names")[0] == [
            f"{self.MOD}:1: lonely has no caller outside tests (delete it, "
            "or call it from production code)"]
        (pkg / "__init__.py").write_text("from .mod import lonely\n")
        demo.write_text("from repro import lonely\n\nlonely()\n")
        assert run_rule("dead-names")[0] == [
            f"{os.path.join('src', 'repro', 'other.py')}:1: lonely has no "
            "caller outside tests (delete it, or call it from production "
            "code)"]

    def test_probes_name_is_exempt(self, repo):
        assert "Engine.probed" not in "\n".join(run_rule("dead-names")[0])
        (repo / "bench_e2e" / "trace.py").write_text("PROBES: tuple = ()\n")
        assert f"{self.MOD}:9: Engine.probed has no caller" in "\n".join(
            run_rule("dead-names")[0])

    def test_repo_has_no_dead_names(self):
        found, summary = run_rule("dead-names")
        assert found == [] and summary.startswith("dead names: 0 flagged (")
        assert summary.endswith(" attribute sites resolved)")
