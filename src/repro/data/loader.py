"""Window-parallel sharded data loading (paper Section V-A, "Data loading").

Under WP, input and output are spatially partitioned so each node loads only
the windows it processes: with a WP group of 16, each node reads 1/16 of the
image.  Rank ``r`` reads the plan rows ``sharding.owned[r]`` of the
attention's own :func:`~repro.parallel.window_sharding`, so no
redistribution is needed after loading.  ``fields`` is a ``(T, H, W, C)``
``np.memmap`` (only the indexed pixels are read) or array; per-rank bytes
read are metered, which the I/O tests and the ablation bench use to verify
the 1/WP claim.
"""

from __future__ import annotations

import numpy as np

from ..parallel.window_parallel import window_sharding

__all__ = ["ShardedWindowLoader"]


class ShardedWindowLoader:
    """Per-WP-rank window loader with byte metering."""

    def __init__(self, fields, window: tuple[int, int],
                 wp_grid: tuple[int, int]):
        self.fields = fields
        _, height, width, self.channels = fields.shape
        self.sharding = window_sharding((height, width), window, wp_grid)
        self.bytes_read = np.zeros(self.sharding.wp, dtype=np.int64)

    def load(self, t: int, rank: int) -> np.ndarray:
        """Rank-local windows of sample ``t``, ``(windows_per_rank, wh, ww,
        C)``: only the owned pixels are read and metered (at their dtype)."""
        rows = self.sharding.rows()[self.sharding.owned[rank]]
        block = np.take(np.asarray(self.fields[t]).reshape(-1, self.channels),
                        rows.reshape(-1), axis=0)
        self.bytes_read[rank] += block.nbytes
        return block.astype(np.float32, copy=False).reshape(
            len(rows), *self.sharding.window, self.channels)

    def load_full(self, t: int) -> np.ndarray:
        """Reference unsharded read (what a no-WP configuration would do on
        every node)."""
        return np.asarray(self.fields[t], dtype=np.float32)
