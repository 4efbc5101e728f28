"""What one taped training step holds, as pinned numbers reconciled with
``repro.perf.MemoryModel`` — ``tracemalloc`` byte counts on one quickstart
batch-4 step, deterministic, no timing.

The tape keeps what a leaf's gradient needs and nothing else: after the
sweep only leaf gradients are left, the sweep's peak is the forward's tape
plus a few temporaries (activations die as their node is consumed), and the
tape itself is within a small factor of the ``(4·d + 2·f)`` stored values
per token per block the memory model charges.
"""

import tracemalloc

import numpy as np
import pytest

from repro.diffusion.loss import weighted_velocity_loss
from repro.kernels import (
    fused_apply_rotary,
    fused_dot_product_attention,
    rope_tables,
)
from repro.model import Aeris
from repro.parallel.topology import RankTopology
from repro.perf import MemoryModel
from repro.tensor import Tensor
from repro.train import Trainer, TrainerConfig
from tests.kernels.test_golden import QUICKSTART, unblind

MB = 2 ** 20
BATCH = 4


@pytest.fixture()
def step(tiny_archive):
    """``forward() -> loss`` for one batch-4 quickstart step, with the
    optimizer state and the kernels' pooled scratch already allocated."""
    trainer = Trainer(unblind(Aeris(QUICKSTART, seed=0)), tiny_archive,
                      TrainerConfig(batch_size=BATCH, seed=0))
    trainer.train_step()
    indices = tiny_archive.split_indices("train")[:BATCH]
    cond, residual, forc = tiny_archive.training_batch(
        indices, trainer.state_norm, trainer.residual_norm,
        trainer.forcing_norm)
    x_t, t, v_target = trainer.flow.training_pair(
        residual, np.random.default_rng(1), np.random.default_rng(2))
    sigma = trainer.flow.sigma_d
    inputs = (x_t / sigma, t, cond, forc)

    def forward():
        pred = trainer.model(*(Tensor(a) for a in inputs))
        return weighted_velocity_loss(pred * sigma, v_target,
                                      trainer.lat_weights,
                                      trainer.var_weights)

    trainer.model.zero_grad()
    forward().backward()                    # every pooled shape once
    trainer.model.zero_grad()
    return forward


def test_tape_memory_is_pinned_and_reconciled_with_the_model(step):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = step()
        tape = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        loss.backward()
        live, peak = (n - start for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    # Only leaf gradients outlive the sweep (the loss is still referenced):
    # 85.7 MB when every node kept its `.grad` and the graph its closures.
    assert live <= 1 * MB, live / MB
    # Activations die as their node is consumed: the sweep never holds much
    # more than the forward's tape.
    assert peak <= tape + 4 * MB, (peak / MB, tape / MB)
    # The tape against MemoryModel's (4·d + 2·f) values per token per block,
    # at FP32 (the model books BF16): 4.8x with one graph node per
    # primitive, 2.98x with one per chain, 2.72x with Q and K rotated in
    # place in the packed projection (21.8 MB).
    model = MemoryModel(QUICKSTART, RankTopology(dp=1, pp=1, wp_grid=(1, 1),
                                                 sp=1))
    booked = (2 * model.activation_bytes_per_layer_per_sample()
              * QUICKSTART.swin_layers * BATCH)
    assert booked == 8 * MB
    assert tape / booked <= 2.75, tape / booked


def test_taped_rotary_allocates_nothing():
    """One taped attention call between the projections — Q and K rotated
    in place in the packed projection, then the core node — keeps the
    probabilities and the output and nothing else: no rotated Q/K copy."""
    cos, sin = rope_tables(QUICKSTART.window, 8)
    rotary = (cos[:, None, None, :], sin[:, None, None, :])
    packed = np.random.default_rng(0).normal(
        size=(BATCH, 32, 16, 3, 4, 8)).astype(np.float32)

    def attend():
        qkv = Tensor(packed.copy(), requires_grad=True)
        fused_apply_rotary(qkv.data[..., :2, :, :], *rotary)
        return fused_dot_product_attention(qkv, rotary)

    attend()                                # pooled scratch, cached tables
    tracemalloc.start()
    try:
        qkv = Tensor(packed.copy(), requires_grad=True)
        start = tracemalloc.get_traced_memory()[0]
        fused_apply_rotary(qkv.data[..., :2, :, :], *rotary)
        out = fused_dot_product_attention(qkv, rotary)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # (…, heads, tokens, tokens) probabilities and the (…, tokens, heads,
    # head_dim) output; a rotated Q/K copy would add 2/3 of the projection.
    tokens, head_dim = packed.shape[2], packed.shape[-1]
    kept = out.numpy().nbytes // head_dim * tokens + out.numpy().nbytes
    assert kept <= grown <= kept + 4096, (grown, kept)
    assert packed.nbytes * 2 // 3 > 4096
