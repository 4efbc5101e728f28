"""The backward sweep against the sweep it replaced.

``reference_backward`` is the parent commit's ``Tensor.backward`` body,
kept verbatim as a test-only reference: it accumulates ``.grad`` on every
node it visits, keeps the graph, and adds whatever the closures hand back.
The shipped sweep (leaf-only ``.grad``, needed-parent pruning, progressive
release, slice contributions added in place) must produce ``array_equal``
leaf gradients — the fan-in association is part of the numerics.
"""

import numpy as np
import pytest

from repro.kernels import disable_kernels, rope_tables
from repro.model import Aeris
from repro.nn import MultiHeadAttention
from repro.tensor import (
    Tensor,
    autocast_bf16,
    concat,
    stack,
)
from repro.tensor.flops import backward_phase
from repro.train import Trainer, TrainerConfig
from tests.kernels.reference_attention import attention_forward
from tests.kernels.test_golden import QUICKSTART, model_inputs, unblind
from tests.switches import maybe


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.array(grad, dtype=node.data.dtype, copy=True)
    else:
        node.grad += grad


def reference_backward(self: Tensor, grad=None) -> None:
    """``Tensor.backward`` as of the parent commit (accumulate everywhere,
    keep the graph).  The one addition is marked: today's ``__getitem__``
    hands back ``(index, g)``, which the parent's closure zero-padded
    itself."""
    if grad is None:
        grad = np.ones_like(self.data)
    else:
        grad = np.asarray(grad, dtype=self.data.dtype)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack_: list[tuple[Tensor, bool]] = [(self, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack_.append((parent, False))
    grads: dict[int, np.ndarray] = {id(self): grad}
    owned: set[int] = set()
    with backward_phase():
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            _accumulate(node, node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if type(pgrad) is tuple:            # -- the one addition --
                    index, part = pgrad
                    pgrad = np.zeros(parent.shape, dtype=part.dtype)
                    pgrad[index] += part
                key = id(parent)
                if key not in grads:
                    grads[key] = pgrad
                elif (key in owned and grads[key].shape == pgrad.shape
                      and grads[key].dtype == np.result_type(
                          grads[key], pgrad)):
                    np.add(grads[key], pgrad, out=grads[key])
                else:
                    grads[key] = grads[key] + pgrad
                    owned.add(key)


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root`` (collect before a sweep: the
    sweep releases the graph behind it)."""
    seen, order, todo = set(), [], [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            todo.extend(node._parents)
    return order


# -- seeded random DAGs over the op set --------------------------------------

SHAPE = (3, 4, 6)


def _binary(rng, a, b):
    kind = rng.integers(5)
    if kind == 0:
        return a + b
    if kind == 1:
        return a - b
    if kind == 2:
        return a * b
    if kind == 3:
        return a / (b * b + 1.5)
    return (a - b).clip(0.0, None) + b      # max(a, b): a masked gradient


def _unary(rng, a):
    kind = rng.integers(9)
    if kind == 0:
        return a * a                        # a repeated parent
    if kind == 1:
        return a.silu()
    if kind == 2:
        return a.sin() * 0.5 + 1.0          # scalar coercions
    if kind == 3:                           # a broadcast row: reduced
        return a + a.mean(axis=-1, keepdims=True)   # by `_unbroadcast`
    if kind == 4:                           # views
        return a.swapaxes(0, 1).reshape(SHAPE)
    if kind == 5:                           # two slices of one parent
        return concat([a[..., 3:], a[..., :3] * 2.0], axis=-1)
    if kind == 6:                           # a slice used twice, fan-in
        half = a[:, :2]
        return concat([half, half * half], axis=1)
    if kind == 7:
        return stack([a[0], a[1], a[2] * a[0]], axis=0)
    return a @ a.swapaxes(-1, -2) @ a       # (3, 4, 4) @ (3, 4, 6)


def random_dag(seed: int, dtype):
    """``(loss, leaves)``: a seeded DAG with fan-out, broadcasting, repeated
    parents, views, slices, and leaves that take no gradient."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.normal(size=SHAPE).astype(dtype), dtype=dtype,
                     requires_grad=bool(i % 3 != 2)) for i in range(4)]
    leaves.append(Tensor(rng.normal(size=SHAPE[-1:]).astype(dtype),
                         dtype=dtype, requires_grad=True))   # broadcasts
    pool = list(leaves)
    for _ in range(int(rng.integers(6, 14))):
        a = pool[rng.integers(len(pool))]
        if a.shape != SHAPE or rng.integers(2):
            b = pool[rng.integers(len(pool))]
            pool.append(_binary(rng, a, b))
        else:
            pool.append(_unary(rng, a))
    total = pool[-1]
    for t in pool[-4:-1]:                   # fan-out into the loss
        total = total + t
    return (total * total).mean(), leaves


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["fp32", "fp64"])
@pytest.mark.parametrize("seed", range(25))
def test_random_dags_match_the_reference_sweep(seed, dtype):
    with np.errstate(all="ignore"):
        loss_ref, leaves_ref = random_dag(seed, dtype)
        loss_new, leaves_new = random_dag(seed, dtype)
        reference_backward(loss_ref)
        nodes = graph_nodes(loss_new)
        inner = [n for n in nodes if n._backward is not None]
        loss_new.backward()
    np.testing.assert_array_equal(loss_new.numpy(), loss_ref.numpy())
    assert any(leaf.grad is not None for leaf in leaves_ref)
    for new, ref in zip(leaves_new, leaves_ref):
        if ref.grad is None:
            assert new.grad is None
        else:
            assert new.grad.dtype == ref.grad.dtype
            np.testing.assert_array_equal(new.grad, ref.grad)
    # Leaf-only `.grad`, and the graph released behind the sweep.
    assert inner and all(n.grad is None for n in inner)
    assert all(n._parents == () for n in inner)


# -- the full quickstart train step -------------------------------------------

def _quickstart_loss(kernels: bool):
    model = unblind(Aeris(QUICKSTART, seed=0))
    args = model_inputs(QUICKSTART, 2)
    if kernels:
        out = model(*args)
    else:
        with disable_kernels():
            out = model(*args)
    return (out * out).mean(), model


@pytest.mark.parametrize("kernels", [True, False],
                         ids=["kernels", "reference-chain"])
@pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
def test_quickstart_train_step_matches_the_reference_sweep(
        bf16, kernels, tiny_archive, monkeypatch):
    """One full ``Trainer`` step (loss, every gradient, every updated
    weight) under the shipped sweep and under the parent's."""
    def step(sweep):
        monkeypatch.setattr(Tensor, "backward", sweep)
        trainer = Trainer(unblind(Aeris(QUICKSTART, seed=0)), tiny_archive,
                          TrainerConfig(batch_size=2, seed=0))
        with maybe(autocast_bf16, bf16):
            if kernels:
                loss = trainer.train_step()
            else:
                with disable_kernels():
                    loss = trainer.train_step()
        params = list(trainer.model.parameters())
        return loss, [p.grad for p in params], [p.data for p in params]

    shipped = Tensor.backward
    loss_ref, grads_ref, weights_ref = step(reference_backward)
    loss_new, grads_new, weights_new = step(shipped)
    assert loss_new == loss_ref
    assert all(g is not None and g.any() for g in grads_ref)
    for new, ref in zip(grads_new + weights_new, grads_ref + weights_ref):
        np.testing.assert_array_equal(new, ref)


def test_only_leaves_hold_grad_after_a_model_sweep():
    loss, model = _quickstart_loss(kernels=True)
    inner = [n for n in graph_nodes(loss) if n._backward is not None]
    loss.backward()
    # 140 with twelve nodes between the projections of each of the four
    # blocks, 104 with three.
    assert len(inner) == 104 and all(n.grad is None for n in inner)
    assert all(p.grad is not None for p in model.parameters())


def test_three_graph_nodes_between_the_projections(monkeypatch):
    """Reshape, the attention core, reshape — where the previous path
    built twelve (reshape, four getitems, four swapaxes, rotary, core,
    reshape)."""
    attn = MultiHeadAttention(16, 2, rng=np.random.default_rng(0))
    cos, sin = rope_tables((2, 2), 8)
    x = Tensor(np.ones((2, 3, 4, 16), np.float32), requires_grad=True)

    def between():
        out = attn(x, cos, sin)
        return sum(n._backward is not None for n in graph_nodes(out)) - 2

    assert between() == 3
    monkeypatch.setattr(MultiHeadAttention, "forward", attention_forward)
    assert between() == 12


def test_closure_results_are_never_mutated():
    """Every array a closure hands back is made read-only before the sweep
    sees it: the sweep may write only into buffers it allocated itself, and
    no closure may write into the gradient it is handed."""
    loss, model = _quickstart_loss(kernels=True)
    expect_loss, expect = _quickstart_loss(kernels=True)
    expect_loss.backward()

    def frozen(closure):
        def wrapped(g):
            out = closure(g)
            for item in out:
                part = item[1] if type(item) is tuple else item
                if isinstance(part, np.ndarray):    # not None, not a scalar
                    part.flags.writeable = False
            return out
        return wrapped

    for node in graph_nodes(loss):
        if node._backward is not None:
            node._backward = frozen(node._backward)
    loss.backward()
    for new, ref in zip(model.parameters(), expect.parameters()):
        np.testing.assert_array_equal(new.grad, ref.grad)


# -- a consumed graph fails loudly ---------------------------------------------

def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(RuntimeError, match="already consumed"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])   # not double-counted
    # ... and through a shared interior node of two roots.
    y = Tensor([3.0], requires_grad=True)
    shared = y * 2.0
    first, second = shared + 1.0, shared * shared
    first.backward()
    with pytest.raises(RuntimeError, match="already consumed"):
        second.backward()


def test_one_sweep_per_stage_graph_over_shared_leaves():
    """The pipeline pattern: disjoint graphs cut at detached boundary
    leaves, one ``backward()`` each, sharing only parameters — which
    accumulate across the sweeps (and across micro-batches)."""
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    x = Tensor(np.array([[0.5, -1.0]]))
    for _ in range(2):                                  # two micro-batches
        stage0 = x @ w
        boundary = Tensor(stage0.numpy().copy(), requires_grad=True)
        stage1 = (boundary @ w).sum()
        stage1.backward()
        stage0.backward(boundary.grad)
    # One graph, swept once, as the reference.
    w_ref = Tensor(w.numpy().copy(), requires_grad=True)
    ((x @ w_ref) @ w_ref).sum().backward()
    np.testing.assert_allclose(w.grad, 2.0 * w_ref.grad, rtol=1e-6)
