"""Window Parallelism (WP) — the paper's new parallel dimension.

Swin's attention windows are independent, so an image's windows can be
distributed across ranks with *no halo exchange*: each rank attends over its
own windows.  Windows are assigned round-robin in both grid directions
(Figure 2a), which balances load and batches the data movement caused by the
alternating window *shift*.

This module provides the sharding/unsharding bookkeeping, the metered
shift exchange, and a window-parallel attention driver that is verified
against unsharded attention.
"""

from __future__ import annotations

import numpy as np

from ..data.loader import round_robin_assignment
from ..kernels import LRUCache
from ..model.windows import window_grid_shape
from .comm import SimCluster

__all__ = ["WindowSharding", "window_sharding", "shift_owner_change_bytes"]


class WindowSharding:
    """Round-robin window sharding over a WP grid for ``(B, H, W, D)``
    images (D = embedding or channel dim)."""

    def __init__(self, grid: tuple[int, int], window: tuple[int, int],
                 wp_grid: tuple[int, int]):
        self.grid = grid
        self.window = window
        self.wp_grid = wp_grid
        self.n_win_h, self.n_win_w = window_grid_shape(grid[0], grid[1], window)
        if self.n_win_h % wp_grid[0] or self.n_win_w % wp_grid[1]:
            raise ValueError("window grid not divisible by WP grid")
        self.assignment = round_robin_assignment(self.n_win_h, self.n_win_w,
                                                 wp_grid)
        self.wp = wp_grid[0] * wp_grid[1]
        self._owned = [np.argwhere(self.assignment == r) for r in range(self.wp)]
        self._gather_plans: list[np.ndarray] | None = None
        self._gather_source: object = None

    @property
    def _gather(self) -> list[np.ndarray]:
        # Lazy + keyed on the identity of `_owned`, so subclasses that
        # replace the assignment after construction stay consistent.
        if self._gather_plans is None or self._gather_source is not self._owned:
            self._gather_plans = self._build_gather()
            self._gather_source = self._owned
        return self._gather_plans

    def _build_gather(self) -> list[np.ndarray]:
        """Per-rank flat pixel indices (window-major, row-major in-window)
        into the flattened ``H*W`` axis — shard/unshard as single gathers."""
        h, w = self.grid
        wh, ww = self.window
        pixel = np.arange(h * w, dtype=np.intp).reshape(h, w)
        plans = []
        for own in self._owned:
            idx = np.empty((len(own), wh * ww), dtype=np.intp)
            for n, (i, j) in enumerate(own):
                idx[n] = pixel[i * wh:(i + 1) * wh,
                               j * ww:(j + 1) * ww].reshape(-1)
            flat = idx.reshape(-1)
            flat.setflags(write=False)
            plans.append(flat)
        return plans

    @property
    def windows_per_rank(self) -> int:
        return (self.n_win_h * self.n_win_w) // self.wp

    # -- shard / unshard ------------------------------------------------------
    def shard(self, image: np.ndarray) -> list[np.ndarray]:
        """``(B, H, W, D)`` -> per-rank ``(B, n_own, wh*ww, D)`` stacks
        (one planned gather per rank)."""
        b, h, w, d = image.shape
        wh, ww = self.window
        flat = image.reshape(b, h * w, d)
        return [np.take(flat, idx, axis=1).reshape(b, len(own), wh * ww, d)
                for own, idx in zip(self._owned, self._gather)]

    def unshard(self, shards: list[np.ndarray]) -> np.ndarray:
        b = shards[0].shape[0]
        d = shards[0].shape[-1]
        h, w = self.grid
        flat = np.empty((b, h * w, d), dtype=shards[0].dtype)
        for stack, idx in zip(shards, self._gather):
            flat[:, idx] = stack.reshape(b, -1, d)
        return flat.reshape(b, h, w, d)

    # -- window-parallel attention ----------------------------------------------
    def parallel_apply(self, image: np.ndarray, window_fn,
                       cluster: SimCluster | None = None,
                       wp_group: list[int] | None = None,
                       shifted: bool = False) -> np.ndarray:
        """Apply a per-window function under WP sharding.

        ``window_fn`` maps ``(B, n, tokens, D)`` -> ``(B, n, tokens, D')``
        and must treat windows independently (true for window attention).
        When ``shifted``, the image is cyclically rolled by half a window
        before sharding and unrolled afterwards; the inter-rank traffic this
        causes is metered as p2p bytes if a cluster is given.
        """
        sh, sw = self.window[0] // 2, self.window[1] // 2
        work = image
        if shifted:
            work = np.roll(work, (-sh, -sw), axis=(1, 2))
            if cluster is not None and wp_group is not None:
                moved = shift_owner_change_bytes(self, image.dtype.itemsize
                                                 * image.shape[0]
                                                 * image.shape[-1])
                # Each rank sends 1/SP of a window per transfer in the real
                # system; here we meter the aggregate volume once.
                cluster.stats.add("p2p", "inter", moved)
        shards = self.shard(work)
        out_shards = [window_fn(s) for s in shards]
        out = self.unshard(out_shards)
        if shifted:
            out = np.roll(out, (sh, sw), axis=(1, 2))
            if cluster is not None and wp_group is not None:
                moved = shift_owner_change_bytes(self, image.dtype.itemsize
                                                 * image.shape[0]
                                                 * out.shape[-1])
                cluster.stats.add("p2p", "inter", moved)
        return out


_SHARDINGS = LRUCache("window_shardings", maxsize=32)


def window_sharding(grid: tuple[int, int], window: tuple[int, int],
                    wp_grid: tuple[int, int]) -> WindowSharding:
    """Memoized :class:`WindowSharding` — the assignment, owned-window lists,
    and gather plans are pure functions of the key, so sharded attention
    reuses one instance per ``(grid, window, wp_grid)``.  Callers must not
    mutate the shared instance (subclass instead, as the ablation bench
    does)."""
    key = ((int(grid[0]), int(grid[1])), (int(window[0]), int(window[1])),
           (int(wp_grid[0]), int(wp_grid[1])))
    return _SHARDINGS.get_or_build(
        key, lambda: WindowSharding(key[0], key[1], key[2]))


def shift_owner_change_bytes(sharding: WindowSharding,
                             bytes_per_pixel: int) -> int:
    """Bytes that change WP owner under a half-window cyclic shift.

    A pixel moves between ranks iff the window it falls in after the shift
    is owned by a different rank than before.  With round-robin assignment
    neighbouring windows always differ in owner (when the WP grid is > 1 in
    that direction), so ~3/4 of each window's pixels move — but the pattern
    is *regular*, which is what lets the real implementation batch the
    exchange.
    """
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
