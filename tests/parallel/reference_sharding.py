"""Oracles for the sharding tests: a toy window attention on the reference
Tensor chain, and the parent commit's roll + slice + reshape bodies of
``DomainSharding.apply_windowed`` and ``shift_owner_change_bytes``, kept
verbatim (they built their own indices; ``src`` now rides the window
plan)."""

import numpy as np

from repro.nn import dot_product_attention
from repro.tensor import Tensor


def toy_window_attention(w_proj):
    """A real per-window single-head attention with a tied projection:
    ``(B, n, T, D) -> (B, n, T, D')``, windows independent."""
    def fn(stack):
        x = Tensor((stack @ w_proj)[:, :, None])       # (B, n, 1, T, D')
        return dot_product_attention(x, x, x).numpy()[:, :, 0]
    return fn


def parent_apply_windowed(grid, window, tile_grid, image, window_fn,
                          shifted=False):
    """``DomainSharding.apply_windowed`` as the parent computed it: roll,
    slice contiguous tiles, reshape each into windows, and back."""
    tile_h, tile_w = grid[0] // tile_grid[0], grid[1] // tile_grid[1]
    wh, ww = window
    sh, sw = (wh // 2, ww // 2) if shifted else (0, 0)
    work = np.roll(image, (-sh, -sw), axis=(1, 2)) if shifted else image
    out = None
    for rank in range(tile_grid[0] * tile_grid[1]):
        ti, tj = divmod(rank, tile_grid[1])
        si = slice(ti * tile_h, (ti + 1) * tile_h)
        sj = slice(tj * tile_w, (tj + 1) * tile_w)
        shard = work[:, si, sj, :].copy()
        b, th, tw, d = shard.shape
        nh, nw = th // wh, tw // ww
        windows = shard.reshape(b, nh, wh, nw, ww, d) \
            .transpose(0, 1, 3, 2, 4, 5).reshape(b, nh * nw, wh * ww, d)
        processed = window_fn(windows)
        dd = processed.shape[-1]
        if out is None:
            out = np.empty((b,) + tuple(grid) + (dd,), dtype=processed.dtype)
        out[:, si, sj, :] = processed.reshape(b, nh, nw, wh, ww, dd) \
            .transpose(0, 1, 3, 2, 4, 5).reshape(b, th, tw, dd)
    return np.roll(out, (sh, sw), axis=(1, 2)) if shifted else out


def parent_shift_owner_change_bytes(sharding, bytes_per_pixel):
    """``shift_owner_change_bytes`` as the parent computed it, from its own
    ``rows // wh`` owner grids."""
    h, w = sharding.grid
    wh, ww = sharding.window
    sh, sw = wh // 2, ww // 2
    rows = np.arange(h)
    cols = np.arange(w)
    owner_before = sharding.assignment[(rows[:, None] // wh) % sharding.n_win_h,
                                       (cols[None, :] // ww) % sharding.n_win_w]
    rows_s = (rows + sh) % h
    cols_s = (cols + sw) % w
    owner_after = sharding.assignment[(rows_s[:, None] // wh),
                                      (cols_s[None, :] // ww)]
    moved_pixels = int((owner_before != owner_after).sum())
    return moved_pixels * bytes_per_pixel
