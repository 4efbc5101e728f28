"""With tracing disabled, instrumented paths must be strict no-ops:
bit-identical numerics to an uninstrumented run and zero span allocations
(the hot-path contract of :mod:`repro.obs.profile`)."""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.model import Aeris
from repro.obs import Event, Span
from repro.parallel import RankTopology, SimCluster, SwipeEngine
from repro.train import Trainer, TrainerConfig
from tests.train.test_trainer import TINY16


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


def _small_archive(seed=0):
    return SyntheticReanalysis(ReanalysisConfig(
        height=16, width=32, train_years=0.3, val_years=0.1, test_years=0.1,
        seed=seed, spinup_steps=40))


def _train(archive, n_steps=3):
    trainer = Trainer(Aeris(TINY16, seed=0), archive,
                      TrainerConfig(batch_size=4, peak_lr=3e-3,
                                    warmup_images=40, total_images=4_000,
                                    decay_images=400, seed=0))
    trainer.fit(n_steps)
    return trainer


class TestDisabledIsFree:
    def test_trainer_allocates_no_spans_when_disabled(self):
        archive = _small_archive()
        _train(archive, n_steps=1)  # warm everything up
        before = Span.allocated
        _train(archive, n_steps=2)
        assert Span.allocated == before

    def test_collectives_allocate_no_spans_when_disabled(self):
        cluster = SimCluster(4, ranks_per_node=2)
        before = Span.allocated
        arrays = [np.ones(8, dtype=np.float32) for _ in range(4)]
        cluster.allreduce([0, 1, 2, 3], arrays)
        cluster.transfer("p2p", 0, 1, arrays[0].nbytes, payload=arrays[0])
        assert Span.allocated == before
        assert cluster.stats.total_bytes() > 0  # metering still works

    def test_trainer_allocates_no_events_when_disabled(self):
        """The flight-recorder hook mirrors the span contract: with no
        recorder enabled, instrumented paths allocate zero Events."""
        archive = _small_archive()
        _train(archive, n_steps=1)  # warm everything up
        before = Event.allocated
        _train(archive, n_steps=2)
        obs.record_event("train.step", subsystem="train", step=0)
        assert Event.allocated == before

    def test_disabled_hooks_share_one_null_scope(self):
        before = Span.allocated
        with obs.span("a", x=1):
            with obs.span("b"):
                pass
        assert Span.allocated == before


def _book_everything():
    obs.count("train.steps", "optimization steps")
    obs.count("comm.bytes", "bytes moved", 4096, primitive="p2p",
              locality="intra")
    obs.gauge("train.loss", "last training loss", 0.25)
    obs.observe("serve.batch_members", "member rows per micro-batch", 3,
                buckets=(1, 2, 4), tier="fast")


class TestBookingHooks:
    def test_dark_hooks_create_no_instrument(self):
        """A hook must not conjure a registry: ``metrics()`` stays ``None``
        while dark, and nothing booked dark shows up once enabled."""
        _book_everything()
        assert obs.metrics() is None
        with obs.observed() as (_, registry):
            assert registry.instruments == {}
            _book_everything()
            assert sorted(registry.instruments) == [
                "comm.bytes", "serve.batch_members", "train.loss",
                "train.steps"]
            assert registry.histogram(
                "serve.batch_members", buckets=(1, 2, 4)).buckets == (1, 2, 4)
        assert obs.metrics() is None

    def test_dark_hooks_allocate_nothing(self):
        """10 k dark rounds of every hook shape leave the traced heap flat
        (a leak of one object per call would be hundreds of KB)."""
        for _ in range(100):
            _book_everything()  # warm caches, interned constants
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                _book_everything()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1024

    def test_labels_may_shadow_the_hook_parameters(self):
        """The hooks' own parameters are positional-only, so ``name``,
        ``value``, ``metric`` and ``help`` are ordinary label keys."""
        labels = {"name": "n", "value": "v", "metric": "m", "help": "h"}
        with obs.observed() as (_, registry):
            obs.count("obs.shadowed", "labels", 2, **labels)
            obs.gauge("obs.shadowed_level", "labels", 0.5, **labels)
            obs.observe("obs.shadowed_s", "labels", 0.25, **labels)
        assert registry.counter("obs.shadowed").value(**labels) == 2
        assert registry.gauge("obs.shadowed_level").value(**labels) == 0.5
        assert registry.histogram("obs.shadowed_s").stats(
            **labels)["count"] == 1
        assert 'metric="m",name="n",value="v"' in obs.prometheus_text(
            registry)


class TestDisabledIsBitIdentical:
    def test_trainer_numerics_identical_enabled_vs_disabled(self):
        """Tracing must be purely read-only: the same trainer run with and
        without observability produces bit-identical weights and losses."""
        plain = _train(_small_archive(), n_steps=3)
        with obs.observed():
            traced = _train(_small_archive(), n_steps=3)
        assert plain.history == traced.history
        for (name, p_a), p_b in zip(plain.model.named_parameters(),
                                    traced.model.parameters()):
            np.testing.assert_array_equal(p_a.data, p_b.data, err_msg=name)

    def test_swipe_numerics_identical_enabled_vs_disabled(self):
        archive = _small_archive(seed=3)
        topo = RankTopology(dp=1, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)

        def one_step():
            engine = SwipeEngine(TINY16, archive, topo, lr=1e-3, seed=0)
            idx = archive.split_indices("train")[:4]
            cond, residual, forc = archive.training_batch(
                idx, archive.state_normalizer(),
                archive.residual_normalizer(),
                archive.forcing_normalizer())
            x_t, t, v = engine.make_training_pairs(residual)
            loss = engine.train_step(x_t, t, v, cond, forc, gas=4)
            return loss, engine.model.state_dict(), \
                dict(engine.cluster.stats.bytes)

        loss_a, state_a, bytes_a = one_step()
        with obs.observed():
            loss_b, state_b, bytes_b = one_step()
        assert loss_a == loss_b
        assert bytes_a == bytes_b  # byte metering unchanged by tracing
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name],
                                          err_msg=name)

    def test_sampler_identical_enabled_vs_disabled(self):
        archive = _small_archive(seed=1)
        trainer = _train(archive, n_steps=2)
        from repro import SolverConfig
        ic = int(archive.split_indices("test")[0])

        def forecast():
            fc = trainer.forecaster(SolverConfig(n_steps=3, churn=0.3))
            return fc.rollout(archive.fields[ic], 2,
                              np.random.default_rng(0), start_index=ic)

        plain = forecast()
        with obs.observed():
            traced = forecast()
        np.testing.assert_array_equal(plain, traced)
