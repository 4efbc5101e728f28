"""Window-parallel sharded data loading (paper Section V-A, "Data loading").

Under WP, input and output are spatially partitioned so each node loads only
the windows it processes: with a WP group of 16, each node reads 1/16 of the
image.  Windows are distributed round-robin in both grid directions across
the ``A x B`` WP node grid — the same distribution the attention sharding
uses, so no redistribution is needed after loading.

The loader wraps any ``(T, H, W, C)`` array-like that supports NumPy basic
slicing (an ``np.memmap``, an ``h5py.Dataset``, or an in-memory array) and
meters per-rank bytes read, which the I/O tests and the ablation bench use
to verify the 1/WP claim.
"""

from __future__ import annotations

import numpy as np

from ..model.windows import window_grid_shape

__all__ = ["ShardedWindowLoader", "round_robin_assignment"]


def round_robin_assignment(n_win_h: int, n_win_w: int, wp_grid: tuple[int, int]
                           ) -> np.ndarray:
    """Rank of each window: ``(n_win_h, n_win_w)`` integer array.

    Window (i, j) belongs to WP rank ``(i mod A) * B + (j mod B)`` — the
    round-robin-in-both-directions scheme of Figure 2a that balances load
    and keeps shifted-window exchanges batched.
    """
    a, b = wp_grid
    rows = np.arange(n_win_h) % a
    cols = np.arange(n_win_w) % b
    return (rows[:, None] * b + cols[None, :]).astype(np.int64)


class ShardedWindowLoader:
    """Per-WP-rank window loader with byte metering."""

    def __init__(self, fields, window: tuple[int, int],
                 wp_grid: tuple[int, int]):
        self.fields = fields
        self.window = window
        self.wp_grid = wp_grid
        _, height, width, self.channels = fields.shape
        self.grid_shape = (height, width)
        self.n_win_h, self.n_win_w = window_grid_shape(height, width, window)
        self.assignment = round_robin_assignment(self.n_win_h, self.n_win_w,
                                                 wp_grid)
        self.wp_size = wp_grid[0] * wp_grid[1]
        if self.n_win_h % wp_grid[0] or self.n_win_w % wp_grid[1]:
            raise ValueError(
                f"window grid {self.n_win_h}x{self.n_win_w} not divisible by "
                f"WP grid {wp_grid}")
        self.bytes_read = np.zeros(self.wp_size, dtype=np.int64)

    def windows_for_rank(self, rank: int) -> list[tuple[int, int]]:
        """(row, col) window coordinates owned by ``rank``, row-major."""
        rows, cols = np.nonzero(self.assignment == rank)
        return list(zip(rows.tolist(), cols.tolist()))

    def load(self, t: int, rank: int) -> np.ndarray:
        """Load rank-local windows of sample ``t``:
        ``(windows_per_rank, wh, ww, C)``.

        Reads only the owned spatial slices (HDF5-style partial I/O).
        """
        wh, ww = self.window
        owned = self.windows_for_rank(rank)
        out = np.empty((len(owned), wh, ww, self.channels), dtype=np.float32)
        for n, (i, j) in enumerate(owned):
            block = self.fields[t, i * wh:(i + 1) * wh, j * ww:(j + 1) * ww, :]
            out[n] = block
            self.bytes_read[rank] += block.nbytes
        return out

    def load_full(self, t: int) -> np.ndarray:
        """Reference unsharded read (what a no-WP configuration would do on
        every node)."""
        return np.asarray(self.fields[t], dtype=np.float32)
