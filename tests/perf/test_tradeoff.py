"""Tests for time-to-solution and checkpointing trade-offs."""

import pytest

from repro.model import TABLE_II
from repro.parallel import RankTopology
from repro.perf import (
    AURORA,
    CheckpointingPlan,
    checkpointing_plan,
    estimate_performance,
    time_to_train,
)


class TestTimeToTrain:
    def test_paper_15_hour_claim(self):
        """'At this pace [50 samples/s] ... approximately 15 hours to
        complete training for 3M samples'."""
        hours = time_to_train(50.0)
        assert 14.0 < hours < 18.0

    def test_modeled_40b_full_run(self):
        cfg = TABLE_II["40B"]
        topo = RankTopology(dp=14, pp=20, wp_grid=(6, 6), sp=12)
        est = estimate_performance(cfg, AURORA, topo, gbs=1960)
        hours = time_to_train(est.images_per_sec)
        assert 10.0 < hours < 30.0  # same order as the paper's ~15 h

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            time_to_train(0.0)


class TestCheckpointingPlan:
    def test_wp_eliminates_checkpointing_for_40b(self):
        """The paper's memory claim end-to-end: with WP=36 the 40B config
        fits Aurora without checkpointing; without WP it must checkpoint
        and pay ~1/3 recompute."""
        cfg = TABLE_II["40B"]  # production layout: DP=14 (ZeRO-1 sharding)
        with_wp = checkpointing_plan(
            cfg, RankTopology(dp=14, pp=20, wp_grid=(6, 6), sp=12), AURORA)
        assert not with_wp.required
        assert with_wp.throughput_factor == 1.0
        without_wp = checkpointing_plan(
            cfg, RankTopology(dp=14, pp=20, wp_grid=(1, 1), sp=12), AURORA)
        assert without_wp.required
        assert without_wp.throughput_factor == pytest.approx(0.75)
        assert without_wp.recompute_overhead == pytest.approx(1 / 3)

    def test_activation_budget_reported(self):
        cfg = TABLE_II["13B"]
        plan = checkpointing_plan(
            cfg, RankTopology(dp=1, pp=16, wp_grid=(4, 4), sp=12), AURORA)
        assert plan.budget_gb == pytest.approx(64.0)
        assert plan.activation_gb > 0

    def test_impossible_fit_raises(self):
        """80B on a single node cannot fit even with checkpointing."""
        cfg = TABLE_II["80B"]
        with pytest.raises(ValueError):
            checkpointing_plan(
                cfg, RankTopology(dp=1, pp=1, wp_grid=(1, 1), sp=12), AURORA)
