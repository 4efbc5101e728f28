"""The CI perf gate must catch slowdowns and tolerate noise/improvements."""

import copy
import json
import os
import sys

import pytest

TOOLS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "tools")
sys.path.insert(0, TOOLS_DIR)

import check_bench_regression as gate  # noqa: E402

BASELINE = {
    "bench": "BENCH_kernels",
    "data": {
        "window_attention_forward": {
            "opt_ms_min": 4.0, "opt_ms_p50": 4.4, "opt_ms_p95": 5.0,
            "ref_ms_min": 7.0, "opt_bytes_per_call": 1_000_000,
            "rounds": 80,
        },
    },
    "derived": {"window_attention_forward_speedup": 1.75},
    "plan_caches": {"window_plans": {"hits": 100}},  # not gated
}


def _write(dirpath, name, payload):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, name), "w") as fh:
        json.dump(payload, fh)


@pytest.fixture
def dirs(tmp_path):
    base = tmp_path / "baseline"
    cur = tmp_path / "current"
    _write(base, "BENCH_kernels.json", BASELINE)
    return base, cur


class TestGate:
    def test_identical_results_pass(self, dirs, capsys):
        base, cur = dirs
        _write(cur, "BENCH_kernels.json", BASELINE)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_2x_slowdown_fails(self, dirs, capsys):
        base, cur = dirs
        slowed = copy.deepcopy(BASELINE)
        for key, value in slowed["data"]["window_attention_forward"].items():
            if key.endswith("_ms_min") or "_ms_p" in key:
                slowed["data"]["window_attention_forward"][key] = value * 2
        slowed["derived"]["window_attention_forward_speedup"] /= 2
        _write(cur, "BENCH_kernels.json", slowed)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 1
        err = capsys.readouterr().err
        assert "opt_ms_min" in err and "speedup" in err
        assert "refresh the baselines" in err

    def test_p95_blowup_alone_passes(self, dirs):
        """A 6x ``opt_ms_p95`` with ``opt_ms_min`` flat is a noisy
        neighbour, not a regression: percentiles of wall time are
        informational."""
        base, cur = dirs
        noisy = copy.deepcopy(BASELINE)
        noisy["data"]["window_attention_forward"]["opt_ms_p95"] *= 6
        noisy["data"]["window_attention_forward"]["opt_ms_p50"] *= 3
        _write(cur, "BENCH_kernels.json", noisy)
        assert gate.main(["--baseline", str(base), "--current", str(cur),
                          "--tolerance-absolute", "1.5"]) == 0

    def test_speedup_drop_alone_fails_even_with_loose_absolute(self, dirs):
        base, cur = dirs
        slowed = copy.deepcopy(BASELINE)
        slowed["derived"]["window_attention_forward_speedup"] = 0.9
        _write(cur, "BENCH_kernels.json", slowed)
        assert gate.main(["--baseline", str(base), "--current", str(cur),
                          "--tolerance-absolute", "10.0"]) == 1

    def test_improvement_never_fails(self, dirs):
        base, cur = dirs
        faster = copy.deepcopy(BASELINE)
        faster["data"]["window_attention_forward"]["opt_ms_min"] = 1.0
        faster["derived"]["window_attention_forward_speedup"] = 7.0
        _write(cur, "BENCH_kernels.json", faster)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_noise_within_tolerance_passes(self, dirs):
        base, cur = dirs
        noisy = copy.deepcopy(BASELINE)
        noisy["data"]["window_attention_forward"]["opt_ms_min"] = 4.9  # +22%
        noisy["derived"]["window_attention_forward_speedup"] = 1.4  # -20%
        _write(cur, "BENCH_kernels.json", noisy)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_tolerance_is_configurable(self, dirs):
        base, cur = dirs
        noisy = copy.deepcopy(BASELINE)
        noisy["data"]["window_attention_forward"]["opt_ms_min"] = 4.6  # +15%
        _write(cur, "BENCH_kernels.json", noisy)
        assert gate.main(["--baseline", str(base), "--current", str(cur),
                          "--tolerance", "0.10"]) == 1
        assert gate.main(["--baseline", str(base), "--current", str(cur),
                          "--tolerance", "0.20"]) == 0

    def test_unclassified_and_counter_leaves_not_gated(self, dirs):
        base, cur = dirs
        changed = copy.deepcopy(BASELINE)
        changed["data"]["window_attention_forward"]["rounds"] = 15
        changed["plan_caches"]["window_plans"]["hits"] = 0
        _write(cur, "BENCH_kernels.json", changed)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_files_only_on_one_side_are_skipped(self, dirs):
        base, cur = dirs
        _write(cur, "BENCH_kernels.json", BASELINE)
        _write(cur, "extra_bench.json", {"data": {"x_ms": 1.0}})
        _write(base, "legacy_bench.json", {"data": {"y_ms": 1.0}})
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_missing_gated_leaf_is_a_hard_failure(self, dirs, capsys):
        # A bench that silently stops emitting a gated metric must fail
        # the gate (the classic escape hatch for a perf regression).
        base, cur = dirs
        dropped = copy.deepcopy(BASELINE)
        del dropped["data"]["window_attention_forward"]["opt_ms_min"]
        _write(cur, "BENCH_kernels.json", dropped)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 1
        err = capsys.readouterr().err
        assert "opt_ms_min" in err
        assert "missing from the current run" in err

    def test_missing_derived_speedup_is_a_hard_failure(self, dirs, capsys):
        base, cur = dirs
        dropped = copy.deepcopy(BASELINE)
        dropped["derived"].clear()
        _write(cur, "BENCH_kernels.json", dropped)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 1
        assert "window_attention_forward_speedup" in \
            capsys.readouterr().err

    def test_missing_ungated_leaf_still_passes(self, dirs):
        # Informational leaves (unclassified names) may come and go.
        base, cur = dirs
        dropped = copy.deepcopy(BASELINE)
        del dropped["data"]["window_attention_forward"]["rounds"]
        _write(cur, "BENCH_kernels.json", dropped)
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 0

    def test_no_common_files_is_an_error(self, tmp_path, capsys):
        base, cur = tmp_path / "b", tmp_path / "c"
        base.mkdir()
        cur.mkdir()
        assert gate.main(["--baseline", str(base),
                          "--current", str(cur)]) == 2

    def test_missing_directory_is_an_error(self, tmp_path):
        assert gate.main(["--baseline", str(tmp_path / "nope"),
                          "--current", str(tmp_path)]) == 2


class TestSdcSidecar:
    """The committed ``BENCH_sdc.json``: the ABFT guard's cost per guarded
    GEMM gates, its share of a (shrinking) step does not."""

    @pytest.fixture
    def sdc(self, tmp_path):
        with open(os.path.join(os.path.dirname(TOOLS_DIR), "benchmarks",
                               "results", "BENCH_sdc.json")) as fh:
            committed = json.load(fh)
        _write(tmp_path / "baseline", "BENCH_sdc.json", committed)
        return tmp_path, committed

    def _gate(self, tmp_path, current):
        _write(tmp_path / "current", "BENCH_sdc.json", current)
        return gate.main(["--baseline", str(tmp_path / "baseline"),
                          "--current", str(tmp_path / "current")])

    def test_doubled_cost_per_guarded_gemm_fails(self, sdc, capsys):
        tmp_path, committed = sdc
        doubled = copy.deepcopy(committed)
        doubled["derived"]["abft_ms_per_guarded_gemm"] *= 2
        assert self._gate(tmp_path, doubled) == 1
        assert "derived.abft_ms_per_guarded_gemm" in capsys.readouterr().err

    def test_overhead_fraction_is_information(self, sdc):
        tmp_path, committed = sdc
        grown = copy.deepcopy(committed)
        for key in ("overhead_frac_paired", "overhead_frac",
                    "overhead_frac_p50"):
            grown["derived"][key] *= 2
        assert self._gate(tmp_path, grown) == 0


class TestClassify:
    @pytest.mark.parametrize("key", ["opt_ms_min", "ref_ms_min",
                                     "opt_bytes_per_call", "bubble_1f1b"])
    def test_lower_is_better(self, key):
        assert gate.classify(key) == "lower"

    @pytest.mark.parametrize("key", ["window_attention_forward_speedup",
                                     "images_per_sec", "ef_sustained",
                                     "efficiency", "mfu", "tflops_per_tile"])
    def test_higher_is_better(self, key):
        assert gate.classify(key) == "higher"

    @pytest.mark.parametrize("key", ["rounds", "nodes", "ratio",
                                     "ref_ms_p95", "opt_ms_p50"])
    def test_unclassified(self, key):
        assert gate.classify(key) is None
