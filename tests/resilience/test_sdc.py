"""Guarded training under compute-domain chaos: every injected SDC
(GEMM flip, weight flip, optimizer flip) is detected, healed bit-exactly
by rollback/recompute, reconciled by ``TraceReport.sdc_check``, and
escalated when bounded retries run out.

Seeded like the comm-chaos suite: ``SDC_SEED`` (CI runs a small matrix
of seeds) varies the injector's bit-position draws without changing the
schedule, so detection must hold for *any* flipped bit the plan deals.
"""

import dataclasses
import os

import numpy as np
import pytest

import repro.obs as obs
from repro.kernels import abft_guard
from repro.model import Aeris
from repro.obs import TraceReport
from repro.resilience import (
    ComputeCorruption,
    ComputeFault,
    FaultInjector,
    FaultPlan,
    inject_compute,
    sdc_check,
)
from repro.train import Trainer, TrainerConfig
from tests.train.test_trainer import TINY16

SDC_SEED = int(os.environ.get("SDC_SEED", "0"))

GUARDED = TrainerConfig(batch_size=4, peak_lr=3e-3, warmup_images=40,
                        total_images=40_000, decay_images=400, seed=0,
                        guarded=True, max_step_retries=2)
PLAIN = dataclasses.replace(GUARDED, guarded=False)

#: An undetected GEMM flip reaches AdamW's second moment as a huge
#: gradient (``nn/optim.py``: ``v += (1 - b2) * g * g``).
UNDEFENDED_FLIP_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning")

#: One scheduled fault per compute-domain site (gemm nth=1 exercises a
#: mid-step kernel, not just the first guarded call).
CHAOS_EVENTS = (ComputeFault(step=1, site="gemm", nth=1),
                ComputeFault(step=2, site="weight"),
                ComputeFault(step=3, site="optimizer"))


def _trainer(tiny_archive, config=GUARDED, events=None, p_compute=0.0,
             seed=0):
    injector = None
    if events is not None or p_compute:
        injector = FaultInjector(FaultPlan(events=tuple(events or ()),
                                           seed=SDC_SEED,
                                           p_compute=p_compute))
    return Trainer(Aeris(TINY16, seed=seed), tiny_archive, config,
                   injector=injector)


@pytest.fixture
def obs_on():
    obs.enable()
    obs.enable_health()
    yield obs
    obs.disable()


class TestGuardedRecovery:
    def test_chaos_run_heals_bit_exact(self, tiny_archive):
        """Five steps through one fault of every site must end in exactly
        the state of an undefended fault-free run — same losses, same
        weights, same EMA: recovery, not mitigation."""
        clean = _trainer(tiny_archive, config=PLAIN)
        clean.fit(5)

        chaos = _trainer(tiny_archive, events=CHAOS_EVENTS)
        with abft_guard():
            chaos.fit(5)

        assert dict(chaos.injector.injected) == {
            "sdc_gemm": 1, "sdc_weight": 1, "sdc_opt": 1}
        assert chaos.step_retries == 3  # one rollback per injected fault
        assert chaos.history == clean.history
        for name, p in clean.model.named_parameters():
            np.testing.assert_array_equal(
                dict(chaos.model.named_parameters())[name].data, p.data,
                err_msg=name)
        for name in clean.ema.shadow:
            np.testing.assert_array_equal(chaos.ema.shadow[name],
                                          clean.ema.shadow[name],
                                          err_msg=f"ema/{name}")

    def test_fault_free_guarded_run_bit_exact_vs_undefended(self,
                                                            tiny_archive):
        """Arming the whole defense stack on a clean run must not perturb
        training numerics by one bit."""
        plain = _trainer(tiny_archive, config=PLAIN)
        plain.fit(4)
        guarded = _trainer(tiny_archive)
        with abft_guard():
            guarded.fit(4)
        assert guarded.step_retries == 0
        assert guarded.history == plain.history
        for name, p in plain.model.named_parameters():
            np.testing.assert_array_equal(
                dict(guarded.model.named_parameters())[name].data, p.data,
                err_msg=name)

    @UNDEFENDED_FLIP_OVERFLOWS
    def test_undefended_run_trains_in_the_corruption(self, tiny_archive):
        """The negative control: without the guard, the same injected GEMM
        flip silently lands in the loss — which is why the defense has to
        exist."""
        clean = _trainer(tiny_archive, config=PLAIN)
        clean.fit(1)
        undefended = _trainer(tiny_archive, config=PLAIN)
        injector = FaultInjector(FaultPlan(
            seed=SDC_SEED,
            events=(ComputeFault(step=0, site="gemm", nth=1),)))
        with inject_compute(injector):
            undefended.fit(1)
        assert dict(injector.injected) == {"sdc_gemm": 1}
        assert undefended.step_retries == 0
        # The flip propagates through backward into the Adam moments (the
        # first step runs at warmup lr=0, so weights move only later):
        # the optimizer state silently diverges from the clean trajectory.
        assert any(
            not np.array_equal(m_u, m_c)
            for m_u, m_c in zip(
                undefended.optimizer.exp_avg + undefended.optimizer.exp_avg_sq,
                clean.optimizer.exp_avg + clean.optimizer.exp_avg_sq))

    def test_exhausted_retries_escalate(self, tiny_archive, obs_on):
        """A *persistent* corruption source (p_compute=1: every guarded
        GEMM flips, retries included) must escalate as typed
        ComputeCorruption after max_step_retries rollbacks."""
        trainer = _trainer(tiny_archive, p_compute=1.0)
        with abft_guard(), pytest.raises(ComputeCorruption,
                                         match="still corrupt"):
            trainer.fit(1)
        # Every attempt (initial + retries) detects and rolls back before
        # the escalation re-raises — no corrupt state is left behind.
        assert trainer.step_retries == GUARDED.max_step_retries + 1
        registry = obs.metrics()
        assert registry.counter("train.guard_escalations").total() == 1
        assert obs.flight().events(kind="train.guard_escalation",
                                   min_severity="critical")


class TestSdcReconciliation:
    def test_sdc_check_closes_the_loop(self, tiny_archive, obs_on):
        trainer = _trainer(tiny_archive, events=CHAOS_EVENTS)
        with abft_guard():
            trainer.fit(5)
        registry = obs.metrics()
        for cause in ("gemm", "weight", "optimizer"):
            assert registry.counter(
                "train.step_retries").total(cause=cause) == 1
        result = TraceReport().run(sdc_check, trainer.injector)
        assert result["agrees"], result
        assert result["recovery_closed"]
        for kind in ("sdc_gemm", "sdc_weight", "sdc_opt"):
            row = result["per_kind"][kind]
            assert row == {"injected": 1, "detected": 1, "match": True}
        assert result["per_kind"]["sdc_forecast"]["injected"] == 0
        assert result["recovered"]["escalations"] == 0

    @UNDEFENDED_FLIP_OVERFLOWS
    def test_sdc_check_flags_undetected_injection(self, tiny_archive,
                                                  obs_on):
        """An injected flip that no defense layer observed (ABFT left
        disarmed) must fail reconciliation — the check's whole point."""
        trainer = _trainer(
            tiny_archive,
            events=(ComputeFault(step=0, site="gemm", nth=1),))
        trainer.fit(1)  # guard disarmed: the flip lands silently
        result = TraceReport().run(sdc_check, trainer.injector)
        assert not result["per_kind"]["sdc_gemm"]["match"]
        assert not result["agrees"]

    def test_render_includes_sdc_line(self, tiny_archive, obs_on):
        trainer = _trainer(tiny_archive, events=CHAOS_EVENTS)
        with abft_guard():
            trainer.fit(5)
        report = TraceReport()
        report.run(sdc_check, trainer.injector)
        text = report.render()
        assert "sdc faults" in text and "recovery closed" in text
        assert "OK" in text and "MISMATCH" not in text


class TestStepGuardAlone:
    """The guard object driven by a stub step: no forward, no backward —
    only the ordering and the bookkeeping it owns."""

    def _guard(self, tiny_archive, retries=2):
        trainer = _trainer(tiny_archive, config=dataclasses.replace(
            GUARDED, max_step_retries=retries))
        return trainer, trainer.guard

    @staticmethod
    def _flip(array):
        array.reshape(-1)[0] += 1.0

    def test_audit_runs_before_the_step(self, tiny_archive):
        """At-rest corruption is caught before the step body ever sees
        it, and the step then runs once, on restored state."""
        trainer, guard = self._guard(tiny_archive)
        guard.run(lambda allow_retry: 0.0)  # retains a clean boundary
        weight = next(iter(trainer.model.parameters()))
        clean = weight.data.copy()
        self._flip(weight.data)
        seen = []

        def step(allow_retry):
            seen.append(next(iter(trainer.model.parameters())).data.copy())
            return 1.5

        assert guard.run(step) == 1.5
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], clean)
        assert trainer.step_retries == 1

    def test_both_sites_booked_before_one_rollback(self, tiny_archive,
                                                   obs_on):
        trainer, guard = self._guard(tiny_archive)
        guard.run(lambda allow_retry: 0.0)
        self._flip(next(iter(trainer.model.parameters())).data)
        self._flip(trainer.optimizer.exp_avg_sq[0])
        guard.run(lambda allow_retry: 0.0)
        registry = obs.metrics()
        detected = registry.counter("resilience.sdc_detected")
        assert detected.total(kind="sdc_weight") == 1
        assert detected.total(kind="sdc_opt") == 1
        retries = registry.counter("train.step_retries")
        assert retries.total(cause="weight") == 1
        assert retries.total(cause="optimizer") == 1
        assert trainer.step_retries == 1  # one rollback healed both
        kinds = [e.kind for e in obs.flight().events()
                 if e.kind in ("compute.sdc_detected", "train.step_rollback")]
        assert kinds == ["compute.sdc_detected", "compute.sdc_detected",
                         "train.step_rollback"]

    def test_retry_budget_and_escalation_site(self, tiny_archive, obs_on):
        """``max_step_retries`` rollbacks, the last attempt told it may
        not retry, then a typed escalation naming the last site."""
        trainer, guard = self._guard(tiny_archive, retries=2)
        flags = []

        def step(allow_retry):
            flags.append(allow_retry)
            raise ComputeCorruption("gemm", "stub")

        with pytest.raises(ComputeCorruption, match="still corrupt") as info:
            guard.run(step)
        assert info.value.site == "gemm"
        assert flags == [True, True, False]
        assert trainer.step_retries == 3
        assert obs.metrics().counter("train.guard_escalations").total() == 1

    def test_nonfinite_loss_retries_then_escalates_as_loss(self,
                                                           tiny_archive):
        from repro.train.guard import NonFiniteLoss
        trainer, guard = self._guard(tiny_archive, retries=1)
        calls = []

        def flaky(allow_retry):
            calls.append(allow_retry)
            if len(calls) == 1:
                raise NonFiniteLoss("non-finite loss nan")
            return 2.0

        assert guard.run(flaky) == 2.0 and calls == [True, False]

        def poisoned(allow_retry):
            raise NonFiniteLoss("non-finite loss nan")

        with pytest.raises(ComputeCorruption) as info:
            guard.run(poisoned)
        assert info.value.site == "loss"

    def test_rollback_restores_the_whole_payload(self, tiny_archive):
        """What the step scribbled over — weights, moments, EMA, counters,
        a generator — is back before the retry."""
        trainer, guard = self._guard(tiny_archive)
        trainer.fit(1)
        before = trainer.rng_t.bit_generator.state
        ema_name = next(iter(trainer.ema.shadow))
        ema = trainer.ema.shadow[ema_name].copy()
        attempts = []

        def step(allow_retry):
            attempts.append(None)
            if len(attempts) == 1:
                trainer.rng_t.normal(size=8)
                trainer.ema.shadow[ema_name] += 1.0
                trainer.images_seen += 4
                trainer.lr_backoff = 0.5
                raise ComputeCorruption("gemm", "stub")
            return 0.0

        images = trainer.images_seen
        guard.run(step)
        assert trainer.rng_t.bit_generator.state == before
        np.testing.assert_array_equal(trainer.ema.shadow[ema_name], ema)
        assert trainer.images_seen == images and trainer.lr_backoff == 1.0
        assert len(trainer.history) == 1  # the stub appended nothing
