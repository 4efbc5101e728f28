"""Window Parallelism (WP) — the paper's new parallel dimension.

Swin's attention windows are independent, so an image's windows can be
distributed across ranks with *no halo exchange*: each rank attends over its
own windows, round-robin in both grid directions (Figure 2a), which balances
load and batches the data movement of the alternating window *shift*.

A sharding is an owner table over the rows of the model's own
:class:`~repro.kernels.WindowPlan` (shift folded in): shard, unshard and the
WP data loader (:class:`~repro.data.ShardedWindowLoader`) move each rank's
rows, so a pass sees the single-process windows from the load on.
"""

from __future__ import annotations

import numpy as np

from ..kernels import LRUCache, window_plan
from ..model.windows import window_grid_shape, window_index_grid
from .comm import SimCluster

__all__ = ["WindowSharding", "window_sharding", "round_robin_assignment",
           "shift_owner_change_bytes"]


def round_robin_assignment(n_win_h: int, n_win_w: int, wp_grid: tuple[int, int]
                           ) -> np.ndarray:
    """Rank of each window, ``(n_win_h, n_win_w)``: window (i, j) belongs to
    WP rank ``(i mod A) * B + (j mod B)`` — Figure 2a's round robin in both
    directions, which balances load and batches shifted-window exchanges."""
    a, b = wp_grid
    return ((np.arange(n_win_h)[:, None] % a) * b
            + np.arange(n_win_w)[None, :] % b).astype(np.int64)


class WindowSharding:
    """Which WP rank owns which window of ``(B, H, W, D)`` images (D =
    embedding or channel dim): ``assignment[i, j]`` is the owner of window
    ``(i, j)`` — round-robin over ``wp_grid`` unless one is handed over."""

    def __init__(self, grid: tuple[int, int], window: tuple[int, int],
                 wp_grid: tuple[int, int],
                 assignment: np.ndarray | None = None):
        self.grid = grid
        self.window = window
        self.wp_grid = wp_grid
        self.n_win_h, self.n_win_w = window_grid_shape(grid[0], grid[1], window)
        if self.n_win_h % wp_grid[0] or self.n_win_w % wp_grid[1]:
            raise ValueError("window grid not divisible by WP grid")
        if assignment is None:
            assignment = round_robin_assignment(self.n_win_h, self.n_win_w,
                                                wp_grid)
        self.wp = wp_grid[0] * wp_grid[1]
        self.windows_per_rank = self.n_win_h * self.n_win_w // self.wp
        # Read-only: window_sharding() hands one instance to every caller.
        self.assignment = np.array(assignment)
        self.assignment.setflags(write=False)
        #: Per rank, the plan rows (window ids, row-major) it owns.
        self.owned = tuple(np.flatnonzero(self.assignment.reshape(-1) == r)
                           for r in range(self.wp))
        for own in self.owned:
            own.setflags(write=False)

    def rows(self, shifted: bool = False) -> np.ndarray:
        """The window plan as ``(n_windows, tokens)`` flat pixel indices."""
        shift = (self.window[0] // 2, self.window[1] // 2) if shifted \
            else (0, 0)
        plan = window_plan(self.grid, self.window, shift)
        return plan.gather.reshape(plan.n_windows, plan.tokens)

    def _moved_rows(self, stack: np.ndarray, shifted: bool,
                    cluster: SimCluster | None) -> np.ndarray:
        """The plan rows a (shifted) pass moves a ``(B, ..., D)`` stack
        over; a shifted one books its exchange on ``cluster`` — the
        aggregate volume once (the real system sends 1/SP of a window per
        transfer)."""
        if shifted and cluster is not None:
            cluster.stats.add("p2p", "inter", shift_owner_change_bytes(
                self, stack.dtype.itemsize * stack.shape[0] * stack.shape[-1]))
        return self.rows(shifted)

    # -- shard / unshard ------------------------------------------------------
    def shard(self, image: np.ndarray, shifted: bool = False,
              cluster: SimCluster | None = None) -> list[np.ndarray]:
        """``(B, H, W, D)`` -> per-rank ``(B, n_own, wh*ww, D)`` stacks of
        the (shifted) windows each rank owns, one gather per rank; a shifted
        pass meters its exchange on ``cluster``."""
        b, h, w, d = image.shape
        flat = image.reshape(b, h * w, d)
        rows = self._moved_rows(image, shifted, cluster)
        return [np.take(flat, rows[own].reshape(-1), axis=1)
                .reshape(b, len(own), rows.shape[1], d)
                for own in self.owned]

    def unshard(self, shards: list[np.ndarray], shifted: bool = False,
                cluster: SimCluster | None = None) -> np.ndarray:
        """Inverse of :meth:`shard` (the shift undone, and metered)."""
        b = shards[0].shape[0]
        d = shards[0].shape[-1]
        rows = self._moved_rows(shards[0], shifted, cluster)
        flat = np.empty((b, rows.size, d), dtype=shards[0].dtype)
        for stack, own in zip(shards, self.owned):
            flat[:, rows[own].reshape(-1)] = stack.reshape(b, -1, d)
        return flat.reshape(b, *self.grid, d)

    def parallel_apply(self, image: np.ndarray, window_fn,
                       cluster: SimCluster | None = None,
                       shifted: bool = False) -> np.ndarray:
        """Apply a per-window function under WP sharding.

        ``window_fn`` maps ``(B, n, tokens, D)`` -> ``(B, n, tokens, D')``
        and must treat windows independently (true for window attention).
        When ``shifted``, ranks own the windows of the half-window-shifted
        frame; the inter-rank traffic this causes is metered as p2p bytes
        if a cluster is given.
        """
        shards = self.shard(image, shifted, cluster)
        return self.unshard([window_fn(s) for s in shards], shifted, cluster)


_SHARDINGS = LRUCache("window_shardings", maxsize=32)


def window_sharding(grid: tuple[int, int], window: tuple[int, int],
                    wp_grid: tuple[int, int]) -> WindowSharding:
    """Memoized round-robin :class:`WindowSharding` — the owner tables are
    pure functions of the key (and read-only), so sharded attention reuses
    one instance per ``(grid, window, wp_grid)``."""
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
    owner = sharding.assignment.reshape(-1)
    before = owner[window_index_grid(*sharding.grid, sharding.window)]
    moved = before.reshape(-1)[sharding.rows(shifted=True)] != owner[:, None]
    return int(moved.sum()) * bytes_per_pixel
