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

    def test_row_pool_module_is_exempt(self, tmp_path, monkeypatch):
        """``rows.py`` keeps its pool a module global; the same statement
        in any other file is a finding."""
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        pkg = tmp_path / "src" / "repro"
        (pkg / "model").mkdir(parents=True)
        pool = "_POOL = None\n\ndef pool():\n    global _POOL\n"
        (pkg / "rows.py").write_text(pool)
        (pkg / "model" / "blocks.py").write_text(pool)
        assert run_rule("no-global")[0] == [
            os.path.join("src", "repro", "model", "blocks.py")
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
        assert int(words[1]) <= 78  # 143 once; do not regrow
        assert int(words[5]) <= 90  # 124 once; do not regrow
        assert summary.endswith(
            f"({len(lint.DEPLOYMENT)} deployment), {words[5]} parameters "
            f"({len(lint.SEAMS)} seams)")


class TestTestsOnlyOptions:
    """A field only tests set is a constant in waiting; production means
    the roots plus ``CALLER_ROOTS``, and ``DEPLOYMENT`` names the site
    capacities that stay settable anyway."""

    MOD = os.path.join("src", "repro", "cfg.py")
    SUMMARY = "options: 2 fields ({} deployment), 0 parameters (0 seams)"

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
        assert run_rule("options")[1].endswith(", 2 parameters (1 seams)")

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
            "dead names: 1 flagged")

    def test_def_called_only_from_tests_is_flagged(self, repo):
        """No table exempts a def: a test's call is not traffic."""
        (repo / "tests").mkdir()
        (repo / "tests" / "test_mod.py").write_text(
            "from repro import mod\n\nmod.lonely()\n")
        assert run_rule("dead-names") == (
            [f"{self.MOD}:1: lonely has no caller outside tests (delete it, "
             "or call it from production code)"],
            "dead names: 1 flagged")
        assert not hasattr(lint, "KEEP")

    def test_attribute_use_elsewhere_keeps_def_live(self, repo):
        (repo / "examples").mkdir()
        (repo / "examples" / "demo.py").write_text(
            "def run(obj):\n    return obj.lonely()\n")
        assert run_rule("dead-names") == ([], "dead names: 0 flagged")

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

    def test_probes_name_is_exempt(self, repo):
        assert "Engine.probed" not in "\n".join(run_rule("dead-names")[0])
        (repo / "bench_e2e" / "trace.py").write_text("PROBES: tuple = ()\n")
        assert f"{self.MOD}:9: Engine.probed has no caller" in "\n".join(
            run_rule("dead-names")[0])

    def test_repo_has_no_dead_names(self):
        assert run_rule("dead-names") == ([], "dead names: 0 flagged")
