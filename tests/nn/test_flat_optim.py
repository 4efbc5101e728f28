"""AdamW and the EMA over flat buffers: the parameters' arrays are views of
one buffer in a shared mapping (:class:`repro.nn.optim.FlatParams`), the
moments and the shadow views of buffers of the same layout, and a step is
one run of ufuncs per run of parameters with a gradient.  Each case steps
the shipped classes and the per-parameter loops they replaced
(``reference_optim.py``) side by side for 20 steps and requires
``array_equal`` weights, moments and shadow."""

import mmap

import numpy as np
import pytest

from repro.nn import EMA, AdamW, Module, Parameter
from repro.nn.optim import FlatParams
from tests.nn.reference_optim import ReferenceAdamW, ReferenceEMA

STEPS = 20
SHAPES = [(3, 4), (5,), (2, 3, 2), (1,), (7, 1)]


class Mixed(Module):
    """Parameters of mixed shapes, in a nested module."""

    def __init__(self, seed: int = 0):
        super().__init__()
        r = np.random.default_rng(seed)
        for i, shape in enumerate(SHAPES[:3]):
            setattr(self, f"p{i}", Parameter(
                r.normal(size=shape).astype(np.float32), name=f"p{i}"))
        self.inner = Module()
        for i, shape in enumerate(SHAPES[3:], start=3):
            setattr(self.inner, f"p{i}", Parameter(
                r.normal(size=shape).astype(np.float32), name=f"p{i}"))


def set_grads(models, step: int, without=()):
    """The same random gradient on each model's parameter ``i``, none on
    those in ``without``."""
    r = np.random.default_rng(100 + step)
    for i, shape in enumerate(SHAPES):
        g = r.normal(size=shape).astype(np.float32)
        for model in models:
            model.parameters()[i].grad = None if i in without else g.copy()


def assert_same(model, ref_model, opts=(), ref_opts=(), ema=None,
                ref_ema=None):
    for p, q in zip(model.parameters(), ref_model.parameters(), strict=True):
        np.testing.assert_array_equal(p.data, q.data, err_msg=p.name)
    for opt, ref in zip(opts, ref_opts, strict=True):
        assert opt.step_count == ref.step_count
        for a, b in zip(opt.exp_avg + opt.exp_avg_sq,
                        ref.exp_avg + ref.exp_avg_sq, strict=True):
            np.testing.assert_array_equal(a, b)
    if ema is not None:
        assert ema.shadow.keys() == ref_ema.shadow.keys()
        for name, shadow in ema.shadow.items():
            np.testing.assert_array_equal(shadow, ref_ema.shadow[name],
                                          err_msg=name)


class TestAgainstTheLoop:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.3])
    def test_mixed_shapes_with_an_ema(self, weight_decay):
        model, ref_model = Mixed(), Mixed()
        opt = AdamW(model.parameters(), lr=3e-3, weight_decay=weight_decay)
        ref = ReferenceAdamW(ref_model.parameters(), lr=3e-3,
                             weight_decay=weight_decay)
        ema, ref_ema = EMA(model, 50.0), ReferenceEMA(ref_model, 50.0)
        for step in range(STEPS):
            set_grads([model, ref_model], step)
            opt.lr = ref.lr = 3e-3 * (1 + step) / STEPS
            opt.step()
            ref.step()
            ema.update(images_per_step=4)
            ref_ema.update(ref_model, images_per_step=4)
        assert_same(model, ref_model, [opt], [ref], ema, ref_ema)

    @pytest.mark.parametrize("without", [(0,), (2,), (4,), (1, 2), (0, 4),
                                         (0, 1, 2, 3, 4)])
    def test_a_parameter_without_a_gradient(self, without):
        """Skipped entirely: its weights, moments and decay stay."""
        model, ref_model = Mixed(), Mixed()
        opt = AdamW(model.parameters(), lr=1e-2)
        ref = ReferenceAdamW(ref_model.parameters(), lr=1e-2)
        for step in range(STEPS):
            set_grads([model, ref_model], step,
                      without=without if step % 3 else ())
            opt.step()
            ref.step()
        assert_same(model, ref_model, [opt], [ref])

    def test_a_parameter_rebound_between_steps(self):
        """``p.data = …`` and ``load_state_dict`` rebind an array: the next
        step copies it into its slot and seats it again."""
        model, ref_model = Mixed(), Mixed()
        opt = AdamW(model.parameters(), lr=1e-2)
        ref = ReferenceAdamW(ref_model.parameters(), lr=1e-2)
        ema, ref_ema = EMA(model, 20.0), ReferenceEMA(ref_model, 20.0)
        flat = opt.seat.flat
        for step in range(STEPS):
            if step % 4 == 1:
                for m in (model, ref_model):
                    m.inner.p3.data = m.inner.p3.data * 0.5
            if step % 4 == 3:
                state = Mixed(seed=step).state_dict()
                model.load_state_dict(state)
                ref_model.load_state_dict(state)
            set_grads([model, ref_model], step)
            opt.step()
            ref.step()
            ema.update(images_per_step=2)
            ref_ema.update(ref_model, images_per_step=2)
            assert all(p.data is v for p, v in zip(model.parameters(),
                                                   opt.seat.views))
        assert opt.seat.flat is flat
        assert_same(model, ref_model, [opt], [ref], ema, ref_ema)

    def test_two_optimizers_over_one_model(self):
        """The second owner adopts the first's seat: one buffer, shared
        views, no copy per step."""
        model, ref_model = Mixed(), Mixed()
        first = AdamW(model.parameters(), lr=1e-2)
        views = [p.data for p in model.parameters()]
        second = AdamW(model.parameters(), lr=5e-3, weight_decay=0.0)
        ema = EMA(model, 30.0)
        assert second.seat.flat is first.seat.flat is ema.seat.flat
        assert all(p.data is v for p, v in zip(model.parameters(), views))
        refs = [ReferenceAdamW(ref_model.parameters(), lr=1e-2),
                ReferenceAdamW(ref_model.parameters(), lr=5e-3,
                               weight_decay=0.0)]
        ref_ema = ReferenceEMA(ref_model, 30.0)
        for step in range(STEPS):
            set_grads([model, ref_model], step)
            (first if step % 2 else second).step()
            refs[step % 2 == 0].step()
            ema.update(images_per_step=1)
            ref_ema.update(ref_model, images_per_step=1)
        assert all(p.data is v for p, v in zip(model.parameters(), views))
        assert_same(model, ref_model, [first, second], refs, ema, ref_ema)

    def test_a_subset_optimizer(self):
        """An optimizer over some of a model's parameters seats them in a
        buffer of its own; the whole-model owners seat them back."""
        model, ref_model = Mixed(), Mixed()
        whole = AdamW(model.parameters(), lr=1e-2)
        part = AdamW(model.parameters()[1:4], lr=2e-2)
        assert part.seat.flat is not whole.seat.flat
        ema = EMA(model, 30.0)
        ref_whole = ReferenceAdamW(ref_model.parameters(), lr=1e-2)
        ref_part = ReferenceAdamW(ref_model.parameters()[1:4], lr=2e-2)
        ref_ema = ReferenceEMA(ref_model, 30.0)
        for step in range(STEPS):
            set_grads([model, ref_model], step)
            if step % 3:
                whole.step()
                ref_whole.step()
            else:
                part.step()
                ref_part.step()
            ema.update(images_per_step=3)
            ref_ema.update(ref_model, images_per_step=3)
        assert_same(model, ref_model, [whole, part], [ref_whole, ref_part],
                    ema, ref_ema)


class TestSeat:
    def test_views_of_one_shared_mapping_in_order(self):
        model = Mixed()
        before = [p.data.copy() for p in model.parameters()]
        seat = FlatParams(model.parameters())
        assert isinstance(seat.flat.base.obj, mmap.mmap)
        assert seat.flat.size == sum(int(np.prod(s)) for s in SHAPES)
        for p, old, lo, hi in zip(model.parameters(), before, seat.offsets,
                                  seat.offsets[1:]):
            assert p.data.base is seat.flat and p.data.shape == old.shape
            np.testing.assert_array_equal(p.data, old)
            np.testing.assert_array_equal(seat.flat[lo:hi], old.ravel())

    def test_views_of_a_plain_buffer_are_seated_again(self):
        """Only a shared mapping is adopted: a forked process would not see
        a private buffer's updates."""
        model = Mixed()
        flat = np.concatenate([p.data.ravel() for p in model.parameters()])
        at = np.cumsum([0] + [p.data.size for p in model.parameters()])
        for p, lo, hi in zip(model.parameters(), at, at[1:]):
            p.data = flat[lo:hi].reshape(p.data.shape)
        seat = FlatParams(model.parameters())
        assert seat.flat is not flat
        assert isinstance(seat.flat.base.obj, mmap.mmap)
        np.testing.assert_array_equal(seat.flat, flat)

    def test_a_wrong_dtype_gradient_raises(self):
        model = Mixed()
        opt = AdamW(model.parameters(), lr=1e-2)
        before = opt.seat.flat.copy()
        set_grads([model], 0)
        model.p1.grad = model.p1.grad.astype(np.float64)
        with pytest.raises(TypeError, match="float64"):
            opt.step()
        np.testing.assert_array_equal(opt.seat.flat, before)

    @pytest.mark.parametrize("bad", [np.zeros((4, 3), np.float32),
                                     np.zeros((3, 4), np.float64)])
    def test_a_wrong_rebind_raises(self, bad):
        model = Mixed()
        opt = AdamW(model.parameters(), lr=1e-2)
        set_grads([model], 0)
        model.p0.data = bad
        with pytest.raises(TypeError, match="p0 rebound"):
            opt.step()
