"""The AERIS network ``F_theta`` (paper Figure 3).

Pixel-level input pipeline: 2D sinusoidal positional encoding added to each
channel → learned linear embedding → N Swin layers (pre-RMSNorm, SwiGLU,
axial 2D RoPE, adaLN time conditioning) → final norm → linear decode back to
pixel space.

The network estimates the TrigFlow velocity for the *residual*
``x_0 = x_i − x_{i-1}``; conditioning (previous state and forcings) is
concatenated channel-wise with the noisy sample.

A tape-free forward of enough batch rows runs its Swin layers as
contiguous row shards, one per usable core, at the same time
(:func:`_row_bounds` picks the split, :func:`_run_row_shards` runs it).
Every row's arithmetic is the serial path's, so the result is equal to it
bit for bit; the embed, the time embedding and the decode run once, on all
rows, in the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from contextvars import copy_context

import numpy as np

from ..kernels import _tape_free, fused_concat_add
from ..kernels.abft import guards_live
from ..nn import LayerNorm, Linear, Module, ModuleList, TimestepEmbedding
from ..nn import pixel_positional_field
from ..tensor import Tensor, concat
from ..tensor.flops import add_flops, count_flops, flops_enabled
from .blocks import SwinLayer
from .config import AerisConfig

__all__ = ["Aeris"]

#: Fewest batch rows a shard is given, and most in a worker's piece.  Measured
#: (DESIGN §10), two shards lose at 2 rows (×0.81), gain from 4, and gain
#: ×1.4–1.8 from 8; at 4 the 1–4-row forwards of a lightly loaded service
#: stay on one core.
_MIN_SHARD_ROWS = 4

#: Cores this process may run on: one shard per core, and a 1-core box
#: never splits.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1

#: The row-shard workers, started by the first split forward.
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _row_bounds(rows: int) -> list[int]:
    """Shard boundaries of a forward over ``rows`` batch rows:
    ``min(cores, rows // _MIN_SHARD_ROWS)`` contiguous shards, the calling
    thread's (the first) never the larger.  One shard, ``[0, rows]``, when a
    tape is recorded or a GEMM guard is live: an ABFT check or a compute
    fault injector addresses guarded GEMMs by their order in the forward."""
    shards = min(_CORES, rows // _MIN_SHARD_ROWS)
    if shards < 2 or not _tape_free() or guards_live():
        return [0, rows]
    return _cuts(0, rows, shards)


def _cuts(lo: int, hi: int, parts: int) -> list[int]:
    """``parts`` contiguous runs of rows ``lo:hi``, as even as can be, the
    first never the larger."""
    return [lo + (hi - lo) * i // parts for i in range(parts + 1)]


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max(1, _CORES - 1),
                                       thread_name_prefix="aeris-rows")
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it starts a pool of
    its own (a task handed to the inherited one would never run)."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_row_shards(swin, h: np.ndarray, t_emb: np.ndarray,
                    bounds: list[int]) -> np.ndarray:
    """``swin`` over each row shard of ``h`` at once: the calling thread
    runs the first, the pool the rest, each into its rows of one fresh
    array.  ``h`` and ``t_emb`` are only read, through views.

    A worker walks its shard in pieces of at most ``_MIN_SHARD_ROWS``
    rows: memory freed on a thread other than the main one stays in a
    malloc arena of that thread's own, which keeps its high-water mark, and
    a piece's intermediates are what bound it (DESIGN §10).  An exception
    of any shard is raised once every shard has finished.  A worker runs
    in a copy of the caller's context, so under the caller's switches
    (:mod:`repro.scoped`).  FLOPs a worker executes are booked to the
    caller's active counters after the join (a thread books to its own)."""
    out = np.empty_like(h)
    counted = flops_enabled()

    def run_rows(lo: int, hi: int) -> None:
        rows_t = Tensor(t_emb[lo:hi] if len(t_emb) == len(h) else t_emb)
        out[lo:hi] = swin(Tensor(h[lo:hi]), rows_t).data

    def shard(i: int) -> int:
        lo, hi = bounds[i], bounds[i + 1]
        if i == 0:
            run_rows(lo, hi)
            return 0
        cuts = _cuts(lo, hi, -(-(hi - lo) // _MIN_SHARD_ROWS))
        with count_flops() if counted else nullcontext() as counter:
            for a, b in zip(cuts, cuts[1:]):
                run_rows(a, b)
        return counter.forward if counted else 0

    workers = [_pool().submit(copy_context().run, shard, i)
               for i in range(1, len(bounds) - 1)]
    try:
        shard(0)
    finally:
        wait(workers)
    flops = sum(w.result() for w in workers)
    if flops:
        add_flops(flops)
    return out


class Aeris(Module):
    """AERIS backbone.

    Call signature follows the diffusion conditioning of Section VI-B:
    ``forward(x_t, t, condition, forcings)`` where

    * ``x_t``        — noisy residual, ``(B, H, W, C)``;
    * ``t``          — diffusion times, ``(B,)`` in ``[0, π/2]``;
    * ``condition``  — previous state ``x_{i-1}``, ``(B, H, W, C)``;
    * ``forcings``   — ``(B, H, W, F)`` (TOA solar, orography, land-sea mask).

    Returns the velocity estimate ``(B, H, W, C)``.
    """

    def __init__(self, config: AerisConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        p2 = config.patch_size ** 2
        self.posenc = pixel_positional_field(config.height, config.width)
        self.embed = Linear(config.in_channels * p2, config.dim, rng=rng)
        self.time_embed = TimestepEmbedding(config.dim, n_freqs=config.time_freqs,
                                            rng=rng)
        self.layers = ModuleList([
            SwinLayer(config, layer_index=i, rng=rng)
            for i in range(config.swin_layers)
        ])
        self.final_norm = LayerNorm(config.dim, elementwise_affine=False)
        self.decode = Linear(config.dim, config.channels * p2, rng=rng,
                             init_std=0.02)

    # -- patching ------------------------------------------------------------
    def _patchify(self, x: Tensor) -> Tensor:
        """``(B, H, W, C)`` -> ``(B, H/p, W/p, C·p²)`` (identity at p=1)."""
        p = self.config.patch_size
        if p == 1:
            return x
        b, h, w, c = x.shape
        x = x.reshape(b, h // p, p, w // p, p, c)
        return x.transpose(0, 1, 3, 2, 4, 5).reshape(b, h // p, w // p,
                                                     p * p * c)

    def _unpatchify(self, x: Tensor) -> Tensor:
        p = self.config.patch_size
        if p == 1:
            return x
        b, gh, gw, cpp = x.shape
        c = cpp // (p * p)
        x = x.reshape(b, gh, gw, p, p, c)
        return x.transpose(0, 1, 3, 2, 4, 5).reshape(b, gh * p, gw * p, c)

    # -- pipeline-stage access (used by repro.parallel.pipeline) ------------
    def embed_stage(self, x_t: Tensor, condition: Tensor,
                    forcings: Tensor) -> Tensor:
        """First pipeline stage: concat conditioning, add posenc, patchify,
        embed."""
        pos = self.posenc[None, :, :, None]
        if _tape_free():    # raw-only kernel: adds on the concat in place
            x = Tensor(fused_concat_add(
                [x_t.data, condition.data, forcings.data], pos))
        else:
            x = concat([x_t, condition, forcings], axis=-1) + Tensor(pos)
        return self.embed(self._patchify(x))

    def decode_stage(self, h: Tensor) -> Tensor:
        """Last pipeline stage: final norm + linear back to pixel space."""
        return self._unpatchify(self.decode(self.final_norm(h)))

    def _swin(self, h: Tensor, t_emb: Tensor) -> Tensor:
        for layer in self.layers:
            h = layer(h, t_emb)
        return h

    def forward(self, x_t: Tensor, t: Tensor, condition: Tensor,
                forcings: Tensor) -> Tensor:
        h = self.embed_stage(x_t, condition, forcings)
        t_emb = self.time_embed(t)
        bounds = _row_bounds(h.shape[0])
        if len(bounds) > 2:
            h = Tensor(_run_row_shards(self._swin, h.data, t_emb.data,
                                       bounds))
        else:
            h = self._swin(h, t_emb)
        return self.decode_stage(h)
