"""Unit tests for the repo lint checkers and their shared walker."""

import os
import sys

import pytest

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tools")
sys.path.insert(0, TOOLS_DIR)

import check_bare_except  # noqa: E402
import check_clones  # noqa: E402
import check_no_print  # noqa: E402
import check_options  # noqa: E402
import check_seeded_rng  # noqa: E402
import lint  # noqa: E402
import walklib  # noqa: E402


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
    def test_yields_only_python_sorted(self, tree):
        files = list(walklib.iter_python_files([str(tree)]))
        names = [os.path.relpath(f, str(tree)) for f in files]
        assert names == sorted(names)
        assert all(n.endswith(".py") for n in names)
        assert os.path.join("sub", "printer.py") in names

    def test_exempt_dirs_skipped(self, tree):
        files = list(walklib.iter_python_files(
            [str(tree)], exempt_dirs=[str(tree / "exempt")]))
        rels = [os.path.relpath(f, str(tree)) for f in files]
        assert rels and not any(r.startswith("exempt") for r in rels)

    def test_resolve_roots_rejects_missing(self, tree, capsys):
        assert walklib.resolve_roots([str(tree / "nope")]) is None
        assert "not a directory" in capsys.readouterr().err
        assert walklib.resolve_roots([str(tree)]) == [str(tree)]


class TestCheckNoPrint:
    def test_finds_offender_not_docstrings(self, tree, capsys):
        assert check_no_print.main([str(tree / "sub")]) == 1
        err = capsys.readouterr().err
        assert "printer.py:2" in err and "clean.py" not in err

    def test_clean_tree_passes(self, tree, capsys):
        (tree / "sub" / "printer.py").unlink()
        assert check_no_print.main([str(tree / "sub")]) == 0

    def test_repo_src_is_clean(self):
        assert check_no_print.main(None) == 0


class TestCheckBareExcept:
    def test_finds_offender_not_typed_handlers(self, tree, capsys):
        assert check_bare_except.main([str(tree)]) == 1
        err = capsys.readouterr().err
        assert "swallow.py:4" in err and "clean.py" not in err

    def test_clean_tree_passes(self, tree):
        (tree / "sub" / "swallow.py").unlink()
        (tree / "sub" / "eater.py").unlink()
        assert check_bare_except.main([str(tree)]) == 0

    def test_repo_src_is_clean(self):
        assert check_bare_except.main(None) == 0

    def test_except_pass_flagged(self, tree, capsys):
        """A typed handler whose whole body is ``pass`` destroys the
        fault's evidence — flagged even though the except is not bare."""
        assert check_bare_except.main([str(tree)]) == 1
        err = capsys.readouterr().err
        assert "eater.py:4" in err and "except ...: pass" in err

    def test_handlers_that_handle_are_fine(self, tree, tmp_path):
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
        assert check_bare_except.swallowing_excepts(str(good)) == []
        bad = tree / "sub" / "eater.py"
        assert check_bare_except.swallowing_excepts(str(bad)) == [4]

    def test_unparseable_file_is_skipped(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n")
        assert check_bare_except.swallowing_excepts(str(broken)) == []


class TestLintEntrypoint:
    def test_fails_if_any_checker_fails(self, tree, capsys):
        assert lint.main([str(tree)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_passes_on_clean_tree(self, tree):
        # The exempt/ convention is specific to src/repro (repro/obs); in an
        # arbitrary tree the lint entrypoint checks every file.
        (tree / "sub" / "printer.py").unlink()
        (tree / "sub" / "swallow.py").unlink()
        (tree / "sub" / "eater.py").unlink()
        (tree / "exempt" / "printer.py").unlink()
        assert lint.main([str(tree)]) == 0

    def test_registry_covers_every_checker(self):
        assert set(lint.CHECKERS) == {"check_no_print", "check_bare_except",
                                      "check_metric_names",
                                      "check_seeded_rng", "check_clones",
                                      "check_options"}


class TestCheckSeededRng:
    def test_flags_random_module_imports(self, tmp_path, capsys):
        bad = tmp_path / "uses_random.py"
        bad.write_text(
            "import random\n"
            "from random import choice\n"
            "def f():\n"
            "    return random.random() + len(str(choice([1])))\n")
        assert check_seeded_rng.main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "uses_random.py:1" in err and "uses_random.py:2" in err

    def test_flags_global_numpy_generator(self, tmp_path, capsys):
        bad = tmp_path / "legacy_np.py"
        bad.write_text(
            "import numpy as np\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    return np.random.rand(3)\n")
        assert check_seeded_rng.main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "legacy_np.py:3" in err and "legacy_np.py:4" in err

    def test_seeded_constructs_pass(self, tmp_path):
        good = tmp_path / "seeded.py"
        good.write_text(
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    gen = np.random.Generator(np.random.PCG64(seed))\n"
            "    return rng.random() + gen.random()\n")
        assert check_seeded_rng.main([str(tmp_path)]) == 0

    def test_word_random_in_other_contexts_is_fine(self, tmp_path):
        good = tmp_path / "mentions.py"
        good.write_text(
            '"""import random would be bad."""\n'
            "# np.random.rand in a comment\n"
            "def f(rng):\n"
            "    return rng.random()\n")
        assert check_seeded_rng.main([str(tmp_path)]) == 0

    def test_unparseable_file_is_skipped(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n")
        assert check_seeded_rng.unseeded_rng(str(broken)) == []

    def test_repo_src_is_clean(self):
        assert check_seeded_rng.main(None) == 0


class TestCheckClones:
    @staticmethod
    def _block(n, comment=False):
        return "".join(f"{'# ' if comment else ''}v{i} = compute({i})\n"
                       for i in range(n))

    def test_copied_block_fails_where_it_starts(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("import x\n" + self._block(10))
        # re-indented, re-commented and spread out, but the same 10 lines
        copy = "def f():\n" + "".join(
            f"    {line}\n\n    # again\n"
            for line in self._block(10).splitlines())
        (tmp_path / "b.py").write_text(copy)
        assert check_clones.main([str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1  # one long copy, one report
        assert "b.py:2:" in err[0] and err[0].endswith("a.py:2")

    def test_seven_lines_pass(self, tmp_path):
        (tmp_path / "a.py").write_text("import x\n" + self._block(7))
        (tmp_path / "b.py").write_text("import y\n" + self._block(7)
                                       + "done = True\n")
        assert check_clones.main([str(tmp_path)]) == 0

    def test_block_repeated_only_in_comments_passes(self, tmp_path):
        (tmp_path / "a.py").write_text(self._block(10, comment=True)
                                       + "a = 1\n")
        (tmp_path / "b.py").write_text(self._block(10, comment=True)
                                       + "b = 2\n")
        assert check_clones.main([str(tmp_path)]) == 0

    def test_repo_src_is_clean(self):
        assert check_clones.main([]) == 0


class TestCheckOptions:
    """An option is a field somebody sets (field names here are ones no
    ``replace(...)`` in the repo could name: setters match by name)."""

    DECLARED = ("from dataclasses import dataclass, replace\n"
                "@dataclass(frozen=True)\n"
                "class XConfig:\n"
                "    knob_a: int = 1\n"
                "    knob_b: int = 2\n")

    def test_field_nobody_sets_fails_until_it_is_a_constant(self, tmp_path,
                                                            capsys):
        (tmp_path / "x.py").write_text(self.DECLARED
                                       + "cfg = XConfig(knob_a=3)\n")
        assert check_options.main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "x.py:5: XConfig.knob_b has no setter" in err
        assert "knob_a" not in err
        (tmp_path / "x.py").write_text(
            self.DECLARED.replace("    knob_b: int = 2\n", "")
            + "KNOB_B = 2\ncfg = XConfig(knob_a=3)\n")
        assert check_options.main([str(tmp_path)]) == 0
        assert "options: 1 fields" in capsys.readouterr().out

    def test_positional_and_replace_count_as_setters(self, tmp_path):
        (tmp_path / "x.py").write_text(
            self.DECLARED + "cfg = replace(XConfig(3), knob_b=4)\n")
        assert check_options.main([str(tmp_path)]) == 0

    def test_double_star_kwargs_set_nothing(self, tmp_path, capsys):
        (tmp_path / "x.py").write_text(
            self.DECLARED + "cfg = XConfig(**{'knob_a': 1, 'knob_b': 2})\n")
        assert check_options.main([str(tmp_path)]) == 1
        assert capsys.readouterr().err.count("has no setter") == 2

    def test_repo_options_all_have_setters_and_stay_counted(self, capsys):
        assert check_options.main(None) == 0
        n_fields = int(capsys.readouterr().out.split()[1])
        assert n_fields <= 94  # 143 before ISSUE 21; do not regrow
