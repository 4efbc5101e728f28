"""The taped attention between the two projections: Q and K rotated in
place in the packed projection, one core node over it, one packed gradient
back — byte-identical to the twelve-node path it replaced
(``reference_attention``), and on the two kernel names the frozen
``bench_e2e`` probes time."""

import hashlib

import numpy as np
import pytest

import repro.kernels.fused as fused_module
import repro.nn.attention as attention_module
from bench_e2e.trace import PROBES
from repro.kernels import abft_guard, rope_tables
from repro.model import Aeris
from repro.nn import MultiHeadAttention
from repro.parallel import RankTopology, SwipeEngine
from repro.tensor import Tensor, autocast_bf16, count_flops, no_grad
from repro.train import Trainer, TrainerConfig
from tests.switches import maybe
from tests.train.test_trainer import TINY16

from . import reference_attention
from .test_golden import QUICKSTART, model_inputs, unblind


def _capture(projection, seen: list) -> None:
    """Record the bytes of every gradient ``projection``'s output is
    handed, through a pass-through node over it."""
    linear = type(projection).forward

    def forward(x):
        out = linear(projection, x)

        def backward(g):
            seen.append(g.tobytes())
            return (g,)

        return Tensor._make(out.data, (out,), backward)

    projection.forward = forward


def _taped_step(bf16: bool, guard: bool, monkeypatch, reference: bool):
    """One quickstart batch-2 forward + backward (shifted and unshifted
    blocks): loss, every QKV-projection gradient and parameter gradient as
    bytes, the guard labels, forward and backward FLOPs."""
    labels, seen = [], []
    guard_gemm = fused_module.guard_gemm
    model = unblind(Aeris(QUICKSTART, seed=0))
    for layer in model.layers:
        for block in layer.blocks:
            _capture(block.attn.qkv, seen)
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(MultiHeadAttention, "forward",
                          reference_attention.attention_forward)
        patch.setattr(fused_module, "guard_gemm",
                      lambda a, b, c, label: (labels.append(label),
                                              guard_gemm(a, b, c, label))[1])
        with maybe(autocast_bf16, bf16), maybe(abft_guard, guard), \
                count_flops() as flops:
            out = model(*model_inputs(QUICKSTART, 2))
            loss = (out * out).mean()
            loss.backward()
    digest = hashlib.sha256(b"".join(p.grad.tobytes()
                                     for p in model.parameters()))
    return (loss.numpy().tobytes(), seen, digest.hexdigest(), labels,
            flops.forward, flops.backward)


@pytest.mark.parametrize("guard", [False, True], ids=["plain", "abft"])
@pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
def test_step_is_byte_identical_to_the_twelve_node_path(bf16, guard,
                                                        monkeypatch):
    got = _taped_step(bf16, guard, monkeypatch, reference=False)
    want = _taped_step(bf16, guard, monkeypatch, reference=True)
    assert len(got[1]) == QUICKSTART.n_blocks
    assert got == want
    assert got[3] == ["attention.scores", "attention.out"] \
        * QUICKSTART.n_blocks


@pytest.mark.parametrize("rope", [False, True], ids=["plain", "rope"])
@pytest.mark.parametrize("bf16", [False, True], ids=["fp32", "bf16"])
def test_zero_gradients_keep_their_sign_bytes(bf16, rope, monkeypatch):
    """A window whose upstream gradient is zero: the rotation of a zero
    gradient can produce ``-0.0``, which the chain's slice sums turned
    into ``+0.0`` — so must the packed gradient, byte for byte."""
    local = np.random.default_rng(3)
    x = local.normal(size=(2, 3, 16, 32)).astype(np.float32)
    g = local.normal(size=x.shape).astype(np.float32)
    g[:, 0] = 0.0
    args = rope_tables(QUICKSTART.window, 8) if rope else ()
    got = []
    for reference in (False, True):
        attn = MultiHeadAttention(32, 4, rng=np.random.default_rng(4))
        seen = []
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(MultiHeadAttention, "forward",
                              reference_attention.attention_forward)
            _capture(attn.qkv, seen)
            leaf = Tensor(x, requires_grad=True)
            with maybe(autocast_bf16, bf16):
                attn(leaf, *args).backward(g)
        got.append((seen, leaf.grad.tobytes(),
                    [p.grad.tobytes() for p in attn.parameters()]))
    assert got[0] == got[1]


def test_one_node_with_the_packed_projection_as_its_parent(monkeypatch):
    """Reshape of the QKV output → the core → its output: the core's one
    parent is the packed projection, and its backward one packed array."""
    attn = MultiHeadAttention(16, 2, rng=np.random.default_rng(0))
    cos, sin = np.ones((4, 4), np.float32), np.zeros((4, 4), np.float32)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 16)).astype(
        np.float32), requires_grad=True)
    calls = []
    core = attention_module.fused_dot_product_attention
    monkeypatch.setattr(attention_module, "fused_dot_product_attention",
                        lambda *a: calls.append(a) or core(*a))
    attn(x, cos, sin)
    (qkv, rotary), = calls
    projection, = qkv._parents          # the reshape of the QKV output
    assert projection._parents[0] is x and qkv.shape == (2, 4, 3, 2, 8)
    assert rotary[0].shape == (4, 1, 1, 4)
    out = core(qkv, rotary)
    assert out._parents == (qkv,) and out.shape == (2, 4, 2, 8)
    grad, = out._backward(np.ones(out.shape, np.float32))
    assert grad.shape == qkv.shape      # one packed gradient, no slices


def _count_kernel_calls(monkeypatch) -> dict:
    """Counters on every kernel name the ``bench_e2e`` probes wrap in
    ``repro.nn.attention``."""
    names = [p.attr for p in PROBES
             if p.module == "repro.nn.attention" and p.layer == "kernels"]
    assert sorted(names) == ["fused_apply_rotary",
                             "fused_dot_product_attention"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        kernel = getattr(attention_module, name)

        def counted(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(attention_module, name, counted)
    return calls


def test_probed_kernel_names_run_on_every_path(tiny_archive, monkeypatch):
    """A taped ``Trainer`` step, a ``SwipeEngine`` step and a ``no_grad``
    forward each call both probed names, so the ``kernels.rope_ms`` and
    ``kernels.attention_core_ms`` ledger rows cannot silently go to zero."""
    calls = _count_kernel_calls(monkeypatch)

    def counts(run):
        for name in calls:
            calls[name] = 0
        run()
        return dict(calls)

    trainer = Trainer(Aeris(QUICKSTART, seed=0), tiny_archive,
                      TrainerConfig(batch_size=2, seed=0))
    topo = RankTopology(dp=1, pp=TINY16.pp_stages, wp_grid=(1, 1), sp=1)
    engine = SwipeEngine(TINY16, tiny_archive, topo, lr=1e-3, seed=0)
    cond, residual, forc = tiny_archive.training_batch(
        tiny_archive.split_indices("train")[:2],
        tiny_archive.state_normalizer(), tiny_archive.residual_normalizer(),
        tiny_archive.forcing_normalizer())
    x_t, t, v = engine.make_training_pairs(residual)

    def forward():
        with no_grad():
            trainer.model(*model_inputs(QUICKSTART, 1))

    blocks = QUICKSTART.n_blocks
    assert TINY16.n_blocks == blocks
    for run, expected in ((trainer.train_step, blocks),
                          (lambda: engine.train_step(x_t, t, v, cond, forc,
                                                     gas=2), 2 * blocks),
                          (forward, blocks)):
        assert counts(run) == dict.fromkeys(calls, expected)
