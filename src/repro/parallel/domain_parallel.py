"""Domain parallelism with halo exchange — the alternative the paper
rejects (Section IV-B):

    "Another approach is Domain Parallelism (e.g., PyTorch DTensor and
    NVIDIA PhysicsNeMo's ShardTensor) that shards inputs over devices
    across spatiotemporal dimensions and automatically issues the
    necessary halo exchanges. ... performance degrades for non-local
    operations ... Compared to input sharding with domain parallelism,
    which requires multiple re-sharding points for the Swin transformer,
    SWiPe avoids introducing additional communication or synchronization
    points."

This module implements that alternative faithfully enough to *measure* the
claim: the image is split into contiguous spatial tiles, and windowed
attention on a tile requires a halo of half a window from each neighbour
whenever the (shifted) window grid straddles the tile boundary.  Both the
functional result (must equal unsharded attention) and the metered exchange
volume are exposed, so the ablation bench can put WP's zero-halo property
side by side with domain parallelism's per-layer halo cost.
"""

from __future__ import annotations

import numpy as np

from ..kernels import plan_merge, window_plan
from ..model.windows import window_grid_shape
from ..tensor import Tensor
from .comm import SimCluster
from .window_parallel import WindowSharding

__all__ = ["DomainSharding", "blocked_assignment"]


def blocked_assignment(n_win_h: int, n_win_w: int, tile_grid: tuple[int, int]
                       ) -> np.ndarray:
    """Contiguous-block window assignment (the alternative to round-robin):
    rank of each window, ``(n_win_h, n_win_w)``."""
    a, b = tile_grid
    rows = np.arange(n_win_h) * a // n_win_h
    cols = np.arange(n_win_w) * b // n_win_w
    return (rows[:, None] * b + cols[None, :]).astype(np.int64)


class DomainSharding:
    """Contiguous spatial tiling of ``(B, H, W, D)`` over a rank grid: the
    blocked owner table over the window plan (``windows``).

    Tiles align with the window grid so that unshifted windows never
    straddle tiles; the *shifted* pass then needs a halo of half a window
    from the south and east neighbours (cyclic), which is the exchange the
    paper says WP avoids.
    """

    def __init__(self, grid: tuple[int, int], window: tuple[int, int],
                 tile_grid: tuple[int, int]):
        self.window = window
        self.tile_h = grid[0] // tile_grid[0]
        self.tile_w = grid[1] // tile_grid[1]
        self.windows = WindowSharding(grid, window, tile_grid, blocked_assignment(
            *window_grid_shape(grid[0], grid[1], window), tile_grid))
        # A rank's windows, merged, are its tile: a window plan of its own.
        self._tile = window_plan((self.tile_h, self.tile_w), window)

    def shard(self, image: np.ndarray) -> list[np.ndarray]:
        """Per-rank contiguous ``(B, tile_h, tile_w, D)`` tiles."""
        return [plan_merge(Tensor(stack), self._tile).data
                for stack in self.windows.shard(image)]

    # -- halo machinery -----------------------------------------------------
    def halo_bytes_per_exchange(self, batch: int, channels: int,
                                itemsize: int = 4) -> int:
        """Bytes each shifted layer moves: every rank receives a halo strip
        of ``window/2`` rows from the south neighbour and ``window/2``
        columns from the east neighbour (plus the corner)."""
        hh, hw = self.window[0] // 2, self.window[1] // 2
        south = hh * self.tile_w
        east = hw * self.tile_h
        corner = hh * hw
        per_rank = (south + east + corner) * batch * channels * itemsize
        return per_rank * self.windows.wp

    def apply_windowed(self, image: np.ndarray, window_fn,
                       shifted: bool = False,
                       cluster: SimCluster | None = None) -> np.ndarray:
        """Windowed operation under domain sharding.

        For the shifted pass each rank gathers halos from its (cyclic)
        south/east neighbours, processes the windows it owns in the shifted
        frame, and the results are re-assembled; a cluster meters the halo
        in and out.  Functionally verified to equal unsharded
        shifted-window attention.
        """
        out = self.windows.parallel_apply(image, window_fn, shifted=shifted)
        if shifted and cluster is not None:
            for moved in (image, out):
                cluster.stats.add("p2p", "inter", self.halo_bytes_per_exchange(
                    image.shape[0], moved.shape[-1], moved.dtype.itemsize))
        return out

    def resharding_points_per_block(self, shifted: bool) -> int:
        """Synchronization points a DTensor-style implementation needs for
        one Swin block: gather-for-attention + scatter afterwards when the
        window layout does not match the shard layout (shifted pass), plus
        none for the aligned unshifted pass."""
        return 2 if shifted else 0
