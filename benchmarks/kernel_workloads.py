"""Shared kernel-benchmark workload definitions.

One place defines each hot-path workload as an *(optimized, reference)*
callable pair; ``run_benches.py`` times them (interleaved A/B, min-of-N) to
produce the ``BENCH_kernels.json`` sidecar the CI regression gate consumes.

The reference callable runs the same computation with
:func:`repro.kernels.disable_kernels`; by the golden tests the two must be
bit-exact, so a workload's correctness check is just array equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data import GcmConfig, LatLonGrid, StaticFields, ToyGCM
from repro.kernels import disable_kernels, rope_tables
from repro.model import TINY, Aeris
from repro.nn import MultiHeadAttention
from repro.parallel import SimCluster, shard_sequence, ulysses_attention
from repro.tensor import Tensor, no_grad


@dataclass
class Workload:
    """A named benchmark workload.

    ``optimized`` runs with the kernel layer live (the default execution
    mode); ``reference`` runs the identical computation on the reference
    paths, or is ``None`` for workloads with no fast/slow split.
    """

    name: str
    optimized: Callable[[], object]
    reference: Callable[[], object] | None = None


def _with_reference(fn: Callable[[], object]) -> Callable[[], object]:
    def run():
        with disable_kernels():
            return fn()
    return run


def _window_attention(name: str, dim: int, heads: int, lead: tuple[int, int],
                      tokens: int, window: tuple[int, int] | None = None
                      ) -> Workload:
    """Fused vs reference ``MultiHeadAttention`` forward, no grad, on
    ``lead + (tokens, dim)``; with ``window`` the Q/K RoPE is included."""
    rng = np.random.default_rng(0)
    attn = MultiHeadAttention(dim, heads, rng=rng)
    x = Tensor(rng.normal(size=(*lead, tokens, dim)).astype(np.float32))
    rope = rope_tables(window, dim // heads) if window else ()

    def forward():
        with no_grad():
            return attn(x, *rope)

    return Workload(name, forward, _with_reference(forward))


def window_attention_forward() -> Workload:
    """The original headline: 64-token windows, head_dim 16, no RoPE."""
    return _window_attention("window_attention_forward", 64, 4, (2, 16), 64)


def window_attention_quickstart() -> Workload:
    """The shape every bench_e2e inference workload spends its time in:
    4x4 windows (16 tokens), head_dim 8, 16 rows x 32 windows, with RoPE —
    the key-major side of the softmax layout selection."""
    return _window_attention("window_attention_quickstart", 32, 4, (16, 32),
                             16, window=(4, 4))


def window_attention_long_window() -> Workload:
    """24x24 windows (576 tokens), with RoPE — the row-wise side of the
    softmax layout selection, where the key-major copy would lose."""
    return _window_attention("window_attention_long_window", 32, 4, (1, 2),
                             576, window=(24, 24))


def window_partition_roundtrip() -> Workload:
    """Shifted partition+merge: one planned gather vs the 4-op chain."""
    from repro.kernels import plan_merge, plan_partition, window_plan
    from repro.model import cyclic_shift, window_merge, window_partition

    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 32, 64, 32)).astype(np.float32))
    grid, window, shift = (32, 64), (8, 8), (4, 4)
    plan = window_plan(grid, window, shift)

    def planned():
        return plan_merge(plan_partition(x, plan), plan)

    def reference():
        shifted = cyclic_shift(x, shift)
        merged = window_merge(window_partition(shifted, window), grid, window)
        return cyclic_shift(merged, shift, reverse=True)

    return Workload("window_partition_roundtrip", planned, reference)


def aeris_train_step_tiny() -> Workload:
    rng = np.random.default_rng(3)
    model = Aeris(TINY, seed=0)
    cfg = TINY
    x_t = rng.normal(size=(2, cfg.height, cfg.width, cfg.channels)
                     ).astype(np.float32)
    t = np.full(2, 0.5, np.float32)
    cond = rng.normal(size=x_t.shape).astype(np.float32)
    forc = rng.normal(size=(2, cfg.height, cfg.width, cfg.forcing_channels)
                      ).astype(np.float32)

    def step():
        model.zero_grad()
        out = model(Tensor(x_t), Tensor(t), Tensor(cond), Tensor(forc))
        (out ** 2).mean().backward()
        return out

    return Workload("aeris_train_step_tiny", step, _with_reference(step))


def ulysses_alltoall_attention() -> Workload:
    sp = 4
    cluster = SimCluster(sp, ranks_per_node=sp)
    rng = np.random.default_rng(4)
    shape = (8, 64, 4, 16)
    q, k, v = (rng.normal(size=shape).astype(np.float32) for _ in range(3))
    qs, ks, vs = (shard_sequence(a, sp) for a in (q, k, v))
    return Workload(
        "ulysses_alltoall_attention",
        lambda: ulysses_attention(cluster, list(range(sp)), qs, ks, vs))


def gcm_step() -> Workload:
    grid = LatLonGrid(24, 48)
    gcm = ToyGCM(grid, StaticFields.generate(grid), GcmConfig())
    state = gcm.initial_state(seed=0, spinup_steps=40)
    return Workload("gcm_step", lambda: gcm.step(state))


#: name -> factory; ordered as they should run/report.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "window_attention_forward": window_attention_forward,
    "window_attention_quickstart": window_attention_quickstart,
    "window_attention_long_window": window_attention_long_window,
    "window_partition_roundtrip": window_partition_roundtrip,
    "aeris_train_step_tiny": aeris_train_step_tiny,
    "ulysses_alltoall_attention": ulysses_alltoall_attention,
    "gcm_step": gcm_step,
}
