"""Equivalence tests: pipelined training, ZeRO-1 sharded optimizer, DP
gradient allreduce, and the composed SWiPe engine must reproduce the
single-process reference numerics."""

import gc

import numpy as np
import pytest

from repro.data import TOY_SET
from repro.diffusion import TrigFlow, weighted_velocity_loss
from repro.model import Aeris
from repro.nn import AdamW, Linear, Parameter
from repro.parallel import (
    AerisPipeline,
    RankTopology,
    SimCluster,
    SwipeEngine,
    ZeroOptimizer,
)
from repro.perf import AURORA, CommModel
from repro.tensor import Tensor
from tests.train.test_trainer import TINY16

rng = np.random.default_rng(0)


def make_inputs(batch=4, seed=0):
    r = np.random.default_rng(seed)
    cfg = TINY16
    x_t = r.normal(size=(batch, cfg.height, cfg.width, cfg.channels)
                   ).astype(np.float32)
    t = r.uniform(0.2, 1.3, size=batch).astype(np.float32)
    cond = r.normal(size=x_t.shape).astype(np.float32)
    forc = r.normal(size=(batch, cfg.height, cfg.width, cfg.forcing_channels)
                    ).astype(np.float32)
    target = r.normal(size=x_t.shape).astype(np.float32)
    return x_t, t, cond, forc, target


class TestPipelineEquivalence:
    def _reference_grads(self, model, x_t, t, cond, forc, target):
        model.zero_grad()
        pred = model(Tensor(x_t), Tensor(t), Tensor(cond), Tensor(forc))
        loss = ((pred - Tensor(target)) ** 2).mean()
        loss.backward()
        return loss.item(), {n: p.grad.copy()
                             for n, p in model.named_parameters()}

    @pytest.mark.parametrize("n_micro", [1, 2, 4])
    def test_gradients_match_monolithic(self, n_micro):
        model = Aeris(TINY16, seed=0)
        x_t, t, cond, forc, target = make_inputs(batch=4)
        ref_loss, ref_grads = self._reference_grads(model, x_t, t, cond,
                                                    forc, target)
        model.zero_grad()
        pipeline = AerisPipeline(model)

        def loss_fn(pred, sl):
            return ((pred - Tensor(target[sl])) ** 2).mean() * (1.0 / n_micro)

        loss = pipeline.forward_backward(x_t, t, cond, forc, loss_fn,
                                         n_micro=n_micro)
        # Sum of (1/n_micro)-scaled equal-size microbatch means equals the
        # full-batch mean.
        assert loss == pytest.approx(ref_loss, rel=1e-5)
        for name, p in model.named_parameters():
            np.testing.assert_allclose(
                p.grad, ref_grads[name], rtol=2e-4, atol=2e-6,
                err_msg=f"gradient mismatch at {name} (n_micro={n_micro})")

    def test_stage_count(self):
        model = Aeris(TINY16)
        assert AerisPipeline(model).n_stages == TINY16.swin_layers + 2

    def test_activation_traffic_metered(self):
        model = Aeris(TINY16, seed=0)
        topo = RankTopology(dp=1, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        cluster = SimCluster(topo.world_size)
        pp_group = [topo.rank_of(0, p, 0, 0) for p in range(topo.pp)]
        pipeline = AerisPipeline(model, cluster, pp_group)
        x_t, t, cond, forc, target = make_inputs(batch=2)

        def loss_fn(pred, sl):
            return ((pred - Tensor(target[sl])) ** 2).mean()

        pipeline.forward_backward(x_t, t, cond, forc, loss_fn, n_micro=1)
        assert cluster.stats.total_bytes("p2p") > 0

    def test_rejects_indivisible_microbatches(self):
        model = Aeris(TINY16)
        pipeline = AerisPipeline(model)
        x_t, t, cond, forc, target = make_inputs(batch=3)
        with pytest.raises(ValueError):
            pipeline.forward_backward(x_t, t, cond, forc,
                                      lambda p, s: (p ** 2).mean(), n_micro=2)


class TestZeroOptimizer:
    def test_matches_plain_adamw(self):
        layer_a = Linear(6, 5, rng=np.random.default_rng(1))
        layer_b = Linear(6, 5, rng=np.random.default_rng(1))
        cluster = SimCluster(4)
        zero = ZeroOptimizer(layer_a.parameters(), cluster, [0, 1, 2, 3],
                             lr=1e-2)
        plain = AdamW(layer_b.parameters(), lr=1e-2)
        r = np.random.default_rng(2)
        for _ in range(5):
            grad_w = r.normal(size=layer_a.weight.data.shape).astype(np.float32)
            grad_b = r.normal(size=layer_a.bias.data.shape).astype(np.float32)
            layer_a.weight.grad = grad_w.copy()
            layer_a.bias.grad = grad_b.copy()
            layer_b.weight.grad = grad_w.copy()
            layer_b.bias.grad = grad_b.copy()
            zero.step()
            plain.step()
        np.testing.assert_array_equal(layer_a.weight.data,
                                      layer_b.weight.data)
        np.testing.assert_array_equal(layer_a.bias.data, layer_b.bias.data)

    def test_state_sharded(self):
        model = Aeris(TINY16, seed=0)
        cluster = SimCluster(4)
        zero = ZeroOptimizer(model.parameters(), cluster, [0, 1, 2, 3])
        # What a non-sharded AdamW would hold on every rank: two moments.
        replicated = sum(2 * p.data.nbytes for p in model.parameters())
        per_rank_max = max(zero.state_bytes_on(s) for s in range(4))
        # Each rank holds roughly 1/DP of the states (round-robin balance).
        assert per_rank_max < replicated / 4 * 1.8
        total = sum(zero.state_bytes_on(s) for s in range(4))
        assert total == replicated

    def test_allgather_metered(self):
        layer = Linear(8, 8)
        cluster = SimCluster(2)
        zero = ZeroOptimizer(layer.parameters(), cluster, [0, 1])
        for p in layer.parameters():
            p.grad = np.ones_like(p.data)
        zero.step()
        assert cluster.stats.total_bytes("allgather") > 0

    def test_lr_propagates(self):
        """An lr set after construction reaches every shard's update."""
        layer_a = Linear(4, 4, rng=np.random.default_rng(1))
        layer_b = Linear(4, 4, rng=np.random.default_rng(1))
        zero = ZeroOptimizer(layer_a.parameters(), SimCluster(2), [0, 1])
        plain = AdamW(layer_b.parameters(), lr=0.123)
        zero.lr = 0.123
        for p, q in zip(layer_a.parameters(), layer_b.parameters()):
            p.grad = np.ones_like(p.data)
            q.grad = np.ones_like(q.data)
        zero.step()
        plain.step()
        for p, q in zip(layer_a.parameters(), layer_b.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


class TestDataParallel:
    """The engine's DP reduction, run by ``TrainingEngine._update``."""

    @staticmethod
    def dp2_engine(archive):
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        return SwipeEngine(TINY16, archive, topo, seed=0)

    def test_allreduce_averages_grads(self, tiny_archive):
        engine = self.dp2_engine(tiny_archive)
        model = engine.model
        params = model.parameters()
        x_t, t, cond, forc, target = make_inputs(batch=4)
        # Reference: the full batch through the same weights.
        pred = model(Tensor(x_t), Tensor(t), Tensor(cond), Tensor(forc))
        (((pred - Tensor(target)) ** 2).mean()).backward()
        ref = [p.grad for p in params]
        # Each replica sees half of the batch and leaves one gradient set.
        grads = []
        for i in range(2):
            sl = slice(i * 2, (i + 1) * 2)
            model.zero_grad()
            pred = model(Tensor(x_t[sl]), Tensor(t[sl]), Tensor(cond[sl]),
                         Tensor(forc[sl]))
            # Per-replica mean loss; the allreduce *averages* over DP, which
            # together reproduce the full-batch mean gradient.
            ((pred - Tensor(target[sl])) ** 2).mean().backward()
            grads.append([p.grad for p in params])
        engine._update(4, grads)
        for (n1, p1), pr in zip(model.named_parameters(), ref, strict=True):
            np.testing.assert_allclose(p1.grad, pr, rtol=2e-4, atol=2e-6,
                                       err_msg=n1)
        # The FP64 ring sum of the two sets, averaged.
        for p, g0, g1 in zip(params, *grads, strict=True):
            np.testing.assert_array_equal(
                p.grad, (g0.astype(np.float64) + g1).astype(np.float32) / 2)

    def test_allreduce_volume_independent_of_model_sharding(self,
                                                            tiny_archive):
        """Gradient allreduce volume depends only on parameter count —
        the paper's claim that WP leaves it unchanged; a missing gradient
        is reduced as zeros."""
        engine = self.dp2_engine(tiny_archive)
        params = engine.model.parameters()
        n_bytes = sum(p.data.nbytes for p in params)
        grads = [[np.ones_like(p.data) for p in params] for _ in range(2)]
        grads[1][0] = None
        engine._update(4, grads)
        np.testing.assert_array_equal(params[0].grad, 0.5)
        np.testing.assert_array_equal(params[1].grad, 1.0)
        expected = sum(int(2 * 1 / 2 * p.data.nbytes) * 2 for p in params)
        assert engine.cluster.stats.total_bytes("allreduce") == expected
        assert expected == 2 * n_bytes  # ring with n=2 moves the data once each


class TestSwipeEngine:
    def test_matches_reference_trainer_step(self, tiny_archive):
        """One SWiPe step (DP=2, GAS=2, ZeRO-1, pipelined) must equal one
        full-batch AdamW step on a single process."""
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(2, 2), sp=2)
        engine = SwipeEngine(TINY16, tiny_archive, topo, lr=1e-3, seed=0)
        # Prepare a global batch of 8 (2 DP x 2 GAS x microbatch 2).
        idx = tiny_archive.split_indices("train")[:8]
        state_norm = tiny_archive.state_normalizer()
        res_norm = tiny_archive.residual_normalizer()
        forc_norm = tiny_archive.forcing_normalizer()
        cond, residual, forc = tiny_archive.training_batch(
            idx, state_norm, res_norm, forc_norm)
        x_t, t, v = engine.make_training_pairs(residual)

        # Reference: single model, full batch.
        ref_model = Aeris(TINY16, seed=0)
        ref_opt = AdamW(ref_model.parameters(), lr=1e-3)
        pred = ref_model(Tensor(x_t), Tensor(t), Tensor(cond), Tensor(forc))
        ref_loss = weighted_velocity_loss(
            pred, v, tiny_archive.grid.latitude_weights(),
            np.asarray(TOY_SET.kappa_weights()))
        ref_loss.backward()
        ref_opt.step()

        loss = engine.train_step(x_t, t, v, cond, forc, gas=2)
        assert loss == pytest.approx(ref_loss.item(), rel=1e-4)
        for (name, p_ref), p_eng in zip(ref_model.named_parameters(),
                                        engine.model.parameters()):
            np.testing.assert_allclose(p_eng.data, p_ref.data, rtol=1e-4,
                                       atol=1e-6, err_msg=name)

    def test_dp4_engine_holds_one_weight_set(self, tiny_archive):
        """Every DP rank's weights are the one model's: building a DP = 4
        engine makes exactly one set of parameter arrays."""
        gc.collect()
        before = sum(isinstance(o, Parameter) for o in gc.get_objects())
        topo = RankTopology(dp=4, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        engine = SwipeEngine(TINY16, tiny_archive, topo, lr=1e-3, seed=0)
        gc.collect()
        made = sum(isinstance(o, Parameter) for o in gc.get_objects())
        assert made - before == len(engine.model.parameters())
        assert {id(pipe.model) for pipe in engine.pipelines} == \
            {id(engine.model)}

    def test_comm_stats_populated(self, tiny_archive):
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        engine = SwipeEngine(TINY16, tiny_archive, topo, lr=1e-3, seed=0)
        idx = tiny_archive.split_indices("train")[:4]
        cond, residual, forc = tiny_archive.training_batch(
            idx, tiny_archive.state_normalizer(),
            tiny_archive.residual_normalizer(),
            tiny_archive.forcing_normalizer())
        x_t, t, v = engine.make_training_pairs(residual)
        engine.train_step(x_t, t, v, cond, forc, gas=2)
        stats = engine.cluster.stats
        assert stats.total_bytes("p2p") > 0        # pipeline activations
        assert stats.total_bytes("allreduce") > 0  # DP gradients
        assert stats.total_bytes("allgather") > 0  # ZeRO-1 params

    def test_attention_alltoall_formula(self):
        """The per-rank alltoall message follows M = b·s·h/SP/WP (BF16 in
        the perf model, the one place it is written)."""
        topo = RankTopology(dp=1, pp=TINY16.pp_stages, wp_grid=(2, 2), sp=2)
        mb = 2
        m = mb * TINY16.seq_len * TINY16.dim * 2 // (topo.sp * topo.wp)
        assert CommModel(TINY16, AURORA, topo).alltoall_message_bytes(mb) == m

    def test_shared_t_across_model_parallel(self, tiny_archive):
        """make_training_pairs: one t-stream per DP replica (the model-
        parallel shards of a replica share the level seed)."""
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        a = SwipeEngine(TINY16, tiny_archive, topo, seed=7)
        b = SwipeEngine(TINY16, tiny_archive, topo, seed=7)
        residual = np.random.default_rng(0).normal(
            size=(4, TINY16.height, TINY16.width, TINY16.channels)
        ).astype(np.float32)
        _, t_a, _ = a.make_training_pairs(residual)
        _, t_b, _ = b.make_training_pairs(residual)
        np.testing.assert_array_equal(t_a, t_b)   # deterministic per seed
        # The two DP replicas draw *different* noise levels.
        assert np.abs(t_a[:2] - t_a[2:]).max() > 1e-6

    def test_indivisible_batch_rejected_before_any_pair_is_drawn(
            self, tiny_archive):
        """A global batch DP does not divide would leave its last rows
        as uninitialised memory: ``make_training_pairs`` refuses it with
        ``train_step``'s own error, and draws nothing first."""
        topo = RankTopology(dp=2, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
        engine = SwipeEngine(TINY16, tiny_archive, topo, seed=7)
        residual = np.zeros((5, TINY16.height, TINY16.width,
                             TINY16.channels), dtype=np.float32)
        before = [rng.bit_generator.state for rng in engine.rngs_t]
        with pytest.raises(ValueError, match="global batch 5 not divisible "
                           "by DP=2"):
            engine.make_training_pairs(residual)
        assert [rng.bit_generator.state for rng in engine.rngs_t] == before
