"""``benchmarks/results/history.jsonl``: the committed trajectory
(ROADMAP 2b).  One JSON line per PR, appended by the PR itself from its own
interleaved parent/change ``bench_e2e`` runs, so "which PR moved this
number" is a ``jq`` query.  ``commit`` names the PR (its own SHA does not
exist yet when the line is written); ``parent`` is the SHA it was measured
against."""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
HISTORY = os.path.join(ROOT, "benchmarks", "results", "history.jsonl")

#: the ``selfcheck.EXACT`` counts CI gates on the traced ``serve_cycle``
EXACT = ("serve.useful_step_frac", "diffusion.model_forwards_per_rep",
         "serve.cache_hit_rate", "serve.dispatches_per_rep")


def test_every_line_parses_and_carries_the_keys():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    with open(HISTORY) as fh:
        lines = fh.read().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert row["commit"] and len(row["parent"]) >= 7
        assert row["pairs"] >= 1 and row["run_seconds"] > 0
        for workload in workloads:
            for metric in metrics:
                cell = row["end_to_end"][workload][metric]
                assert cell["parent"] > 0 and cell["change"] > 0, \
                    (workload, metric)
        assert set(EXACT) <= set(row["exact_counts"])
        assert row["tier1"]["tests"] > 0 and row["tier1"]["wall_s"] > 0
        assert row["src_repro_loc"] > 0
        # settable fields (the options rule of ``tools/lint.py``), from PR 21 on
        assert row.get("options", 1) > 0
    last = json.loads(lines[-1])
    assert "options" in last
    # from PR 22 on (ROADMAP 4f, 5a): the five slowest tier-1 entries and
    # one ``simtest_cli run --time-budget 40``, parent and change
    for side in ("parent", "change"):
        slowest = last["tier1"]["slowest"][side]
        assert len(slowest) == 5
        assert all(isinstance(test_id, str) and seconds > 0
                   for test_id, seconds in slowest)
        assert last["simtest_scenarios_per_min"][side] > 0
    # PR 23's line only: the EDM baseline's 16-member one-step ensemble,
    # sequential per member (parent) vs stacked (change)
    pr23 = next(row for row in map(json.loads, lines)
                if row["commit"] == "PR 23")
    assert 0 < pr23["edm_ensemble16_ms"]["change"] \
        < pr23["edm_ensemble16_ms"]["parent"]
    # PR 24's line only: the Ulysses kernel bench (min of 80), the package's
    # own einsum core (parent) vs the model's attention kernel (change)
    pr24 = next(row for row in map(json.loads, lines)
                if row["commit"] == "PR 24")
    assert 0 < pr24["ulysses_alltoall_attention_ms"]["change"] \
        < pr24["ulysses_alltoall_attention_ms"]["parent"]
