"""Chaos tests: the elastic supervisor must finish training under a
seeded fault plan — transient faults healing bit-exactly, fail-stops
recovering onto a degraded grid — with every injected fault observed.

``CHAOS_SEED`` (env var, default 0) seeds the background fault rates so
CI can sweep several deterministic chaos universes.
"""

import os

import numpy as np
import pytest

from repro import rows
from repro.model import AerisConfig
from repro.obs import TraceReport, observed, prometheus_text
from repro.parallel import RankTopology
from repro.parallel.autotune import plan_for
from repro.perf import AURORA
from repro.resilience import (
    BitFlip,
    ClusterFailure,
    Drop,
    FailStop,
    FaultInjector,
    FaultPlan,
    Straggle,
    resilience_check,
)
from repro.resilience.supervisor import ElasticSupervisor, SupervisorConfig
from repro.serve import ServeWorkerPool
from repro.train.checkpoint import list_checkpoints
from tests.parallel.test_forked_replicas import forks  # noqa: F401

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Smallest config with a real pipeline (3 stages) — chaos runs train it
#: dozens of times, so every axis is at its minimum.
MICRO = AerisConfig(name="micro", height=16, width=32, channels=9,
                    forcing_channels=3, dim=16, heads=2, ffn_dim=32,
                    swin_layers=1, blocks_per_layer=1, window=(4, 4),
                    time_freqs=8)

TOPO = RankTopology(dp=2, pp=MICRO.pp_stages, wp_grid=(1, 1), sp=1)
#: A rank inside DP replica 1's pipeline — its death forces a re-grid.
DEAD_RANK = TOPO.rank_of(1, 1, 0, 0)

N_STEPS = 5


def _run(tmp_path, archive, plan, tag, n_steps=N_STEPS, save_every=1,
         max_restarts=4):
    sup = ElasticSupervisor(
        MICRO, archive, TOPO,
        SupervisorConfig(seed=0, global_batch=8, gas=2,
                         save_every=save_every,
                         checkpoint_root=str(tmp_path / tag),
                         max_restarts=max_restarts),
        fault_plan=plan)
    out = sup.run(n_steps)
    return sup, out


@pytest.fixture(scope="module")
def fault_free(tmp_path_factory, tiny_archive):
    tmp = tmp_path_factory.mktemp("fault-free")
    sup, out = _run(tmp, tiny_archive, None, "ck")
    return out["history"], sup.validation_loss()


class TestTransientFaults:
    def test_bit_exact_vs_fault_free(self, tmp_path, tiny_archive,
                                     fault_free):
        """Scheduled corruption + drop + straggler, plus seeded background
        noise: every transient heals via checksum/retry, so the final
        validation loss matches the fault-free run within 1e-6."""
        plan = FaultPlan(
            events=(BitFlip(step=1, primitive="allreduce", nth=0),
                    Drop(step=2, primitive="p2p", nth=1),
                    Straggle(step=1, primitive="*", nth=3, delay_s=0.03)),
            seed=CHAOS_SEED, p_bitflip=0.002, p_drop=0.002, p_straggle=0.01)
        sup, out = _run(tmp_path, tiny_archive, plan, "transient")
        ref_history, ref_val = fault_free
        assert out["recoveries"] == []  # transients never escalate
        np.testing.assert_allclose(out["history"], ref_history, rtol=0,
                                   atol=1e-6)
        assert abs(sup.validation_loss() - ref_val) < 1e-6
        assert sup.injector.injected.get("flip", 0) >= 1
        assert sup.injector.injected.get("straggler", 0) >= 1


class TestElasticRecovery:
    @pytest.fixture(scope="class")
    def chaos_run(self, tmp_path_factory, tiny_archive):
        """The full acceptance scenario: ≥1 transient corruption, ≥1
        straggler, and one fail-stop mid-run, with obs capturing it all."""
        tmp = tmp_path_factory.mktemp("chaos")
        plan = FaultPlan(
            events=(BitFlip(step=1, primitive="allreduce", nth=0),
                    Straggle(step=2, primitive="*", nth=3, delay_s=0.05),
                    FailStop(rank=DEAD_RANK, step=3)),
            seed=CHAOS_SEED)
        with observed() as (tracer, registry):
            sup, out = _run(tmp, tiny_archive, plan, "ck")
            val = sup.validation_loss()
        return sup, out, val, tracer, registry

    def test_run_completes_on_degraded_grid(self, chaos_run):
        sup, out, _, _, _ = chaos_run
        assert len(out["history"]) == N_STEPS
        assert len(out["recoveries"]) == 1
        rec = out["recoveries"][0]
        assert rec["dead_ranks"] == [DEAD_RANK]
        assert rec["dp"] == [2, 1]              # replica 1 dropped
        assert rec["world_size"] == [6, 3]
        assert sup.topology.dp == 1
        assert rec["restored_from"] is not None  # resumed from checkpoint

    def test_validation_loss_within_tolerance(self, chaos_run, fault_free):
        """After a re-grid the batch splits across DP=1 instead of DP=2,
        so the trajectory is close but not bit-identical; DESIGN.md
        documents the 10% relative tolerance asserted here."""
        _, _, val, _, _ = chaos_run
        _, ref_val = fault_free
        assert np.isfinite(val)
        assert abs(val - ref_val) / ref_val < 0.10

    def test_all_faults_observed(self, chaos_run):
        """Acceptance: every injected fault appears in the metrics
        snapshot and the trace — the report's reconciliation agrees."""
        sup, _, _, tracer, registry = chaos_run
        report = TraceReport(tracer, registry)
        check = report.run(resilience_check, sup.injector)
        assert check["agrees"], check
        assert check["resilience_spans"] >= 3  # flip + straggle + recovery
        snapshot = registry.snapshot()
        injected = dict(sup.injector.injected)
        booked = {dict(k).get("kind"): v for k, v in
                  zip(*[[dict(kv for kv in key) for key, _ in
                         snapshot["resilience.faults_injected"]["series"]],
                        [v for _, v in
                         snapshot["resilience.faults_injected"]["series"]]])}
        assert booked == injected
        assert registry.counter("resilience.recoveries").total() == 1
        assert "resilience faults" in report.render()  # renders somewhere

    def test_checkpoints_on_disk(self, chaos_run):
        sup, _, _, _, _ = chaos_run
        found = list_checkpoints(sup.cfg.checkpoint_root)
        assert len(found) >= N_STEPS  # every step saved (some twice)


class TestForkedChaos:
    def test_forked_equals_serial(self, tmp_path, tiny_archive, monkeypatch,
                                  forks):
        """Unobserved, a supervised step runs DP replica 1 on a kept
        worker, whose transfers the caller makes: transients, the
        fail-stop and its re-grid are the one-process run's."""
        plan = FaultPlan(
            events=(BitFlip(step=1, primitive="p2p", nth=10),   # replica 1
                    Drop(step=2, primitive="p2p", nth=1),
                    Straggle(step=1, primitive="*", nth=3, delay_s=0.03),
                    FailStop(rank=DEAD_RANK, step=3)),
            seed=CHAOS_SEED, p_bitflip=0.01, p_drop=0.01, p_straggle=0.01)
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            runs.append(_run(tmp_path, tiny_archive, plan, f"cores{cores}"))
        assert len(forks) >= 1
        (serial, a), (forked, b) = runs
        for out in (a, b):
            for rec in out["recoveries"]:
                rec["restored_from"] = os.path.basename(rec["restored_from"])
        assert len(a["recoveries"]) == 1
        assert a == b
        assert dict(serial.injector.injected) == \
            dict(forked.injector.injected)
        assert serial.injector.rng.bit_generator.state == \
            forked.injector.rng.bit_generator.state
        for (name, pa), pb in zip(serial.engine.model.named_parameters(),
                                  forked.engine.model.parameters(),
                                  strict=True):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
        for meter in ("bytes", "ops"):
            assert list(getattr(serial.engine.cluster.stats, meter).items()) \
                == list(getattr(forked.engine.cluster.stats, meter).items())


class TestRecoveryEdgeCases:
    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path,
                                                  tiny_archive):
        sup, _ = _run(tmp_path, tiny_archive, None, "ck", n_steps=3)
        newest = list_checkpoints(sup.cfg.checkpoint_root)[-1]
        shard = os.path.join(newest, "model.npz")
        with open(shard, "rb") as fh:
            raw = bytearray(fh.read())
        raw[-30] ^= 0xFF
        with open(shard, "wb") as fh:
            fh.write(bytes(raw))
        restored = sup._restore_latest()
        assert os.path.basename(restored) == "step-00000002"
        assert len(sup.history) == 2

    @pytest.mark.parametrize("rot", ["truncated", "empty-object"])
    def test_rotten_manifest_falls_back_and_is_alerted(self, tmp_path,
                                                       tiny_archive, rot):
        """A rotten manifest is stepped over, counted, and leaves a
        ``checkpoint.corrupt`` event."""
        from repro.obs import monitored
        sup, _ = _run(tmp_path, tiny_archive, None, "ck", n_steps=3)
        manifest = os.path.join(
            list_checkpoints(sup.cfg.checkpoint_root)[-1], "manifest.json")
        with open(manifest) as fh:
            text = fh.read()
        with open(manifest, "w") as fh:
            fh.write(text[:len(text) // 2] if rot == "truncated" else "{}")
        with monitored() as session:
            restored = sup._restore_latest()
            assert session.registry.counter(
                "resilience.checkpoints_rejected").total() == 1
            assert len(session.recorder.events(
                kind="checkpoint.corrupt", min_severity="critical")) == 1
        assert os.path.basename(restored) == "step-00000002"
        assert len(sup.history) == 2

    def test_restart_budget_exhausted(self, tmp_path, tiny_archive):
        plan = FaultPlan(events=(FailStop(rank=DEAD_RANK, step=1),))
        with pytest.raises(ClusterFailure):
            _run(tmp_path, tiny_archive, plan, "ck", max_restarts=0)

    def test_indivisible_regrid_is_a_typed_failure(self, tmp_path,
                                                   tiny_archive):
        """Rank 0's death takes DP 4 to 3, which does not divide the
        global batch of 8: ``run`` ends with ``ClusterFailure``, not the
        engine's bare ``ValueError``."""
        sup = ElasticSupervisor(
            MICRO, tiny_archive,
            RankTopology(dp=4, pp=MICRO.pp_stages, wp_grid=(1, 1), sp=1),
            SupervisorConfig(global_batch=8, gas=1,
                             checkpoint_root=str(tmp_path)),
            fault_plan=FaultPlan(events=(FailStop(rank=0, step=1),)))
        with pytest.raises(ClusterFailure, match="global batch 8 .*DP=3") \
                as info:
            sup.run(3)
        assert isinstance(info.value.__cause__, ValueError)

    def test_no_checkpoint_restarts_from_scratch(self, tmp_path,
                                                 tiny_archive):
        plan = FaultPlan(events=(FailStop(rank=DEAD_RANK, step=1),))
        sup, out = _run(tmp_path, tiny_archive, plan, "ck", n_steps=3,
                        save_every=0)
        assert len(out["history"]) == 3
        assert out["recoveries"][0]["restored_from"] is None
        assert out["recoveries"][0]["resumed_at_step"] == 0


class TestDeadRanksBookedOnce:
    def test_export_does_not_depend_on_who_booked_first(self, tmp_path,
                                                        tiny_archive):
        """Regression: the supervisor and the serve pool each registered
        ``resilience.dead_ranks`` with their own help text, so the
        ``# HELP`` line depended on which fail-stop came first."""
        def supervisor_recovery(tag):
            _run(tmp_path, tiny_archive,
                 FaultPlan(events=(FailStop(rank=DEAD_RANK, step=0),)),
                 tag, n_steps=1)

        def serve_failover(tag):
            pool = ServeWorkerPool(2, injector=FaultInjector(FaultPlan(
                events=(FailStop(rank=0, step=0),))),
                duration_fn=lambda result: 0.25)
            pool.dispatch(0.0, lambda: None)

        texts = []
        for first, second in ((supervisor_recovery, serve_failover),
                              (serve_failover, supervisor_recovery)):
            with observed() as (_, registry):
                first(f"a{len(texts)}")
                second(f"b{len(texts)}")
            assert registry.counter("resilience.dead_ranks").total() == 2
            # pp.bubble is laid out from measured wall-clock stage costs
            texts.append([line for line in
                          prometheus_text(registry).splitlines()
                          if not line.startswith("pp_bubble{")])
        assert texts[0] == texts[1]


class TestTopologyDegrade:
    def test_drops_affected_dp_replica(self):
        topo = RankTopology(dp=3, pp=2, wp_grid=(1, 1), sp=1)
        degraded = topo.degrade([topo.rank_of(1, 0, 0, 0)])
        assert degraded.dp == 2
        assert (degraded.pp, degraded.wp_grid, degraded.sp) == \
            (topo.pp, topo.wp_grid, topo.sp)

    def test_two_dead_replicas(self):
        topo = RankTopology(dp=3, pp=2, wp_grid=(1, 1), sp=1)
        dead = [topo.rank_of(0, 0, 0, 0), topo.rank_of(2, 1, 0, 0)]
        assert topo.degrade(dead).dp == 1

    def test_falls_back_to_shedding_sp(self):
        topo = RankTopology(dp=1, pp=2, wp_grid=(1, 1), sp=2)
        degraded = topo.degrade([0])
        assert degraded.sp == 1
        assert degraded.dp == 1

    def test_falls_back_to_shrinking_wp(self):
        topo = RankTopology(dp=1, pp=2, wp_grid=(2, 2), sp=1)
        degraded = topo.degrade([0])
        assert degraded.wp == 2
        assert degraded.wp_grid == (2, 1)

    def test_unrecoverable_grid_raises(self):
        topo = RankTopology(dp=1, pp=2, wp_grid=(1, 1), sp=1)
        with pytest.raises(ClusterFailure):
            topo.degrade([0])

    def test_no_dead_is_identity(self):
        topo = RankTopology(dp=2, pp=2, wp_grid=(1, 1), sp=1)
        assert topo.degrade([]) is topo


class TestAutotunedRecovery:
    """A run on a tuned layout — the plan's chosen topology and GAS, as
    ``tools/autotune_cli.py plan`` derives them — executes exactly the
    plan, and after a fail-stop re-grids onto a layout that fits the
    survivors."""

    WORLD = 12

    @pytest.fixture(scope="class")
    def plan(self):
        return plan_for(MICRO, AURORA, self.WORLD, 8)

    def _tuned(self, tmp, archive, plan, fault_plan, tag, n_steps=N_STEPS):
        sup = ElasticSupervisor(
            MICRO, archive, plan.chosen.topology,
            SupervisorConfig(seed=0, global_batch=8, gas=plan.chosen.gas,
                             save_every=1, checkpoint_root=str(tmp / tag)),
            fault_plan=fault_plan)
        out = sup.run(n_steps)
        return sup, out

    @pytest.fixture(scope="class")
    def tuned_run(self, tmp_path_factory, tiny_archive, plan):
        tmp = tmp_path_factory.mktemp("tuned")
        with observed():
            return self._tuned(tmp, tiny_archive, plan, None, "ck",
                               n_steps=3)

    @pytest.fixture(scope="class")
    def tuned_chaos(self, tmp_path_factory, tiny_archive, plan):
        tmp = tmp_path_factory.mktemp("tuned-chaos")
        # Rank 4 sits at (dp=0, pp=1, wp=0, sp=0) in the tuned
        # dp1.pp3.wp1x2.sp2 layout — a pipeline-spine rank whose death
        # the engine's collectives actually observe.
        faults = FaultPlan(events=(FailStop(rank=4, step=2),))
        return self._tuned(tmp, tiny_archive, plan, faults, "ck")

    def test_regridded_layout_fits_survivors(self, plan, tuned_chaos):
        sup, out = tuned_chaos
        assert plan.chosen.layout_key.startswith("dp1.pp3.wp1x2.sp2")
        assert len(out["recoveries"]) == 1
        rec = out["recoveries"][0]
        old_world, new_world = rec["world_size"]
        assert new_world < old_world <= self.WORLD
        assert sup.topology == plan.chosen.topology.degrade(
            rec["dead_ranks"])
        assert rec["layout"].startswith(
            f"dp{sup.topology.dp}.pp{sup.topology.pp}")
        # The re-grid left the plan.
        assert sup.topology != plan.chosen.topology

    def test_training_completes_on_the_degraded_grid(self, tuned_chaos):
        sup, out = tuned_chaos
        assert len(out["history"]) == N_STEPS
        assert np.isfinite(out["history"]).all()
        assert np.isfinite(sup.validation_loss())

    def test_tuned_run_executes_the_plan(self, plan, tuned_run):
        """A full smoke run on the plan's layout ends on that layout."""
        assert tuned_run[0].topology == plan.chosen.topology

    def test_tuned_runs_are_bit_exact(self, tmp_path, tiny_archive, plan,
                                      tuned_run):
        """The plan changes scheduling inputs deterministically; two
        identical tuned runs reproduce the same trajectory bit-for-bit."""
        _, out = self._tuned(tmp_path, tiny_archive, plan, None, "b",
                             n_steps=3)
        np.testing.assert_array_equal(out["history"], tuned_run[1]["history"])


class TestDegradeFitsSurvivors:
    """Regression: a single shed degree can still demand more ranks than
    survive the fail-stops — the re-grid must keep shedding until the
    shrunken grid fits onto the *alive* rank count, never re-gridding
    onto dead ranks."""

    def test_one_shed_is_not_enough(self):
        # 8 ranks, 4 dead: sp 4->3 would still need 6 ranks (> 4 alive).
        topo = RankTopology(dp=1, pp=2, wp_grid=(1, 1), sp=4)
        degraded = topo.degrade([0, 2, 4, 6])
        assert degraded.world_size <= 4
        assert degraded.sp == 2
        assert (degraded.dp, degraded.pp) == (1, 2)

    def test_sheds_across_degrees_keeping_pp(self):
        # 16 ranks, 14 dead: must shed sp and the whole WP grid down to
        # the PP-only spine (pipeline depth can never shrink).
        topo = RankTopology(dp=1, pp=2, wp_grid=(2, 2), sp=2)
        degraded = topo.degrade(list(range(14)))
        assert degraded.world_size <= 2
        assert degraded.pp == 2
        assert (degraded.wp_grid, degraded.sp) == ((1, 1), 1)

    def test_unsatisfiable_survivor_count_raises(self):
        # Even the fully-shed grid needs pp=4 ranks; only 2 survive.
        topo = RankTopology(dp=1, pp=4, wp_grid=(2, 1), sp=1)
        with pytest.raises(ClusterFailure):
            topo.degrade(list(range(6)))
