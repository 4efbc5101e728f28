"""The AERIS network ``F_theta`` (paper Figure 3).

Pixel-level input pipeline: 2D sinusoidal positional encoding added to each
channel → learned linear embedding → N Swin layers (pre-RMSNorm, SwiGLU,
axial 2D RoPE, adaLN time conditioning) → final norm → linear decode back to
pixel space.

The network estimates the TrigFlow velocity for the *residual*
``x_0 = x_i − x_{i-1}``; conditioning (previous state and forcings) is
concatenated channel-wise with the noisy sample.

Every row's arithmetic is independent of the call's other rows, so rows
``lo:hi`` of an n-row forward equal a forward of rows ``lo:hi`` bit for bit:
what lets :func:`repro.diffusion.sampler.step_sharded`, the training engine
and a no-grad :meth:`Aeris.forward` itself split a batch across kept worker
processes (:mod:`repro.rows`).
"""

from __future__ import annotations

import numpy as np

from ..kernels import _tape_free, fused_concat_add
from ..nn import LayerNorm, Linear, Module, ModuleList, TimestepEmbedding
from ..nn import pixel_positional_field
from ..nn.optim import FlatParams
from ..rows import WORKERS, _fork_bounds, enter
from ..tensor import Tensor, concat
from .blocks import SwinLayer
from .config import AerisConfig

__all__ = ["Aeris"]

#: Rows from which a no-grad forward splits (:meth:`Aeris.forward`).  Two
#: groups save about half the forward (9 rows 28 → 14 ms), but a model's
#: first split forks the kept worker anew (≈ 12–17 ms and ≈ 1 100
#: copy-on-write faults): from 8 rows one forward repays it (DESIGN §10).
_SPLIT_ROWS = 8


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

    def forward(self, x_t: Tensor, t: Tensor, condition: Tensor,
                forcings: Tensor) -> Tensor:
        """The velocity estimate.  A no-grad forward of ``_SPLIT_ROWS`` rows
        or more that no outer split covers runs its rows in contiguous
        groups at once, the model their owner
        (:data:`repro.rows.WORKERS`): this process the first group, a
        kept worker each other, sent the group's rows of the inputs (``t``
        whole when it is one time for every row), each group through
        :meth:`_rows`.  A row's output does not depend on its group, so
        the result is the whole forward's bit for bit; inside a member
        group or a row half, and under every fallback of
        :func:`repro.rows._fork_bounds`, the forward runs whole."""
        n = len(x_t.data)
        if n >= _SPLIT_ROWS and _tape_free() and len(_fork_bounds(n)) > 2:
            enter(self, lambda: FlatParams(self.parameters()), ())
            shared = t.data.shape[:1] != (n,)
            return Tensor(np.concatenate(WORKERS.run(
                self, Aeris._group, n, lambda lo, hi: (
                    x_t.data[lo:hi], t.data if shared else t.data[lo:hi],
                    condition.data[lo:hi], forcings.data[lo:hi]))))
        return self._rows(x_t, t, condition, forcings)

    def _group(self, lo: int, hi: int, inputs: tuple) -> np.ndarray:
        """Rows ``lo:hi`` of a split forward, from their rows of the
        inputs: their output rows."""
        return self._rows(*map(Tensor, inputs)).data

    def _rows(self, x_t: Tensor, t: Tensor, condition: Tensor,
              forcings: Tensor) -> Tensor:
        """The forward over every row it is given, in this process."""
        h = self.embed_stage(x_t, condition, forcings)
        t_emb = self.time_embed(t)
        for layer in self.layers:
            h = layer(h, t_emb)
        return self.decode_stage(h)
