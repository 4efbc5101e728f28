"""Unit tests for the metric-name rule of ``tools/lint.py``."""

import re

import pytest

from .test_lint import lint, run_rule


class TestCheckName:
    @pytest.mark.parametrize("name", [
        "train.steps", "serve.latency_s", "comm.bytes",
        "kernels.plan_cache_hits", "eval.metric_s", "obs.alerts",
    ])
    def test_canonical_names_pass(self, name):
        assert lint.check_name(name) is None

    @pytest.mark.parametrize("name", [
        "steps",                 # no subsystem
        "train.serve.steps",     # two dots
        "Train.steps",           # uppercase subsystem
        "train.Steps",           # uppercase name
        "train.1steps",          # digit-leading name
        "train_steps",           # underscore where the dot should be
    ])
    def test_shape_violations(self, name):
        message = lint.check_name(name)
        assert message and "subsystem.name" in message

    @pytest.mark.parametrize("name,canonical", [
        ("serve.latency_ms", "_s"),
        ("serve.latency_seconds", "_s"),
        ("comm.payload_mb", "_bytes"),
        ("serve.hit_ratio", "_frac"),
        ("serve.hit_pct", "_frac"),
    ])
    def test_unit_suffix_violations(self, name, canonical):
        message = lint.check_name(name)
        assert message and canonical in message


class TestMetricViolations:
    def _write(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        return lint.Source(str(path))

    def _violations(self, tmp_path, source):
        return lint.scan(self._write(tmp_path, source))[1]

    def test_clean_file_has_none(self, tmp_path):
        assert self._violations(tmp_path, (
            "def f(reg):\n"
            "    reg.counter('train.steps').inc(1)\n"
            "    reg.histogram('serve.latency_s', buckets=(1.0,))"
            ".observe(0.5, tier='fast')\n")) == []

    def test_clean_hook_calls_have_none(self, tmp_path):
        assert self._violations(tmp_path, (
            "_count('train.steps')\n"
            "_gauge('serve.queue_depth', 'waiting', 3, tier='fast')\n"
            "obs.observe('serve.latency_s', '', 0.5, buckets=(1.0,),"
            " tier='fast')\n")) == []

    @pytest.mark.parametrize("call", [
        "count('eval.metric_seconds', 'help')",
        "_gauge('queue_depth', 'help', 2)",
        "obs.observe('Serve.latency_s', 'help', 0.5)",
    ])
    def test_flags_bad_name_through_a_hook(self, tmp_path, call):
        out = self._violations(tmp_path, call + "\n")
        assert [line for line, _ in out] == [1]
        assert "metric" in out[0][1]

    @pytest.mark.parametrize("call", [
        "_count('a.b', 'help', 1, Tier='fast')",
        "gauge('a.b', 'help', 2, Tier='fast')",
        "_observe('a.b', 'help', 0.5, buckets=(1.0,), Tier='fast')",
        "_count(f'{subsystem}.b', 'help', 1, Tier='fast')",
    ])
    def test_flags_bad_label_through_a_hook(self, tmp_path, call):
        out = self._violations(tmp_path, call + "\n")
        assert len(out) == 1 and "Tier" in out[0][1]

    def test_method_named_like_a_hook_is_not_a_booking(self, tmp_path):
        assert lint.scan(self._write(tmp_path, (
            "n = text.count('BAD NAME')\n"
            "self._count('hit', Tier='fast')\n"))) == (0, [])

    def test_flags_bad_registration_name(self, tmp_path):
        out = self._violations(
            tmp_path, "reg.counter('eval.metric_seconds').inc(1)\n")
        assert [line for line, _ in out] == [1]
        assert "_seconds" in out[0][1]

    def test_flags_bad_label_on_chained_record(self, tmp_path):
        out = self._violations(
            tmp_path, "reg.counter('a.b').inc(1, Tier='fast')\n")
        assert len(out) == 1 and "Tier" in out[0][1]

    def test_buckets_kwarg_exempt(self, tmp_path):
        assert self._violations(tmp_path, (
            "reg.histogram('a.b', buckets=(1.0,))"
            ".observe(0.5, buckets=(2.0,))\n")) == []

    def test_computed_names_ignored(self, tmp_path):
        assert self._violations(tmp_path, (
            "name = 'BAD NAME'\n"
            "reg.counter(name).inc(1)\n"
            "reg.counter(f'serve.{name}').inc(1)\n")) == []

    def test_unchained_record_calls_ignored(self, tmp_path):
        # .set() on arbitrary objects is not a metric write.
        assert self._violations(
            tmp_path, "widget.set(1, Color='red')\n") == []


class TestMain:
    def test_main_clean_and_dirty(self, tmp_path):
        (tmp_path / "good.py").write_text(
            "reg.counter('train.steps').inc(1)\n")
        assert run_rule("metric-names", tmp_path)[0] == []
        (tmp_path / "bad.py").write_text(
            "reg.gauge('queue_depth').set(2)\n")
        found = "\n".join(run_rule("metric-names", tmp_path)[0])
        assert "bad.py:1" in found and "queue_depth" in found

    def test_repo_source_is_clean(self):
        found, summary = run_rule("metric-names")
        assert found == []
        # The lint once matched registry chains only and would have passed
        # a tree whose writers had all moved to the hooks: it must see them
        # (66 since the plan route's four bookings went).
        booked = re.search(r"(\d+) booking calls", summary)
        assert int(booked.group(1)) >= 66
