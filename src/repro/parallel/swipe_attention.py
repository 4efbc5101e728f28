"""The composed SWiPe attention data path (paper Figure 2), functionally.

One shifted-window attention layer executed exactly as the paper
distributes it:

1. the (possibly shifted) token grid is divided into windows, distributed
   **round-robin over the WP node grid** (Figure 2a, middle);
2. within each WP node, window tokens are flattened and **sharded across
   the SP ranks** of the node;
3. qkv projection runs on each SP shard; **Ulysses all-to-alls**
   re-partition to head-sharded full windows around the attention kernel
   (with axial 2D RoPE applied to q/k);
4. the output projection runs on the re-sharded tokens, windows are merged
   back and the shift undone.

Every byte moved rides the metered :class:`~repro.parallel.comm.SimCluster`.
Every array movement is a row of the model's window plan and every
GEMM, rotation and softmax is the model's own kernel, so the result is
``np.array_equal`` to the single-process
:class:`~repro.nn.MultiHeadAttention` forward (BF16 autocast included) and
books the same FLOPs.
"""

from __future__ import annotations

import numpy as np

from ..kernels import fused_apply_rotary, fused_linear, rope_tables
from .comm import SimCluster
from .sequence_parallel import ulysses_attention
from .topology import RankTopology
from .window_parallel import window_sharding

__all__ = ["swipe_window_attention"]


def swipe_window_attention(image: np.ndarray, attention, window: tuple[int, int],
                           topology: RankTopology,
                           cluster: SimCluster | None = None,
                           shifted: bool = False) -> np.ndarray:
    """Run one windowed multi-head attention under WP x SP sharding.

    Parameters
    ----------
    image:
        ``(B, H, W, D)`` token grid.
    attention:
        A trained :class:`repro.nn.MultiHeadAttention` whose weights are
        used (its qkv/out projections and head layout).
    window / topology:
        Window shape and the DP×PP×WP×SP layout; the ranks of DP instance
        0, pipeline stage 0 execute it (for locality accounting).
    """
    sp = topology.sp
    step, ragged = divmod(window[0] * window[1], sp)
    if ragged:
        raise ValueError(f"window {window} tokens not divisible by SP={sp} "
                         f"of {topology}")
    if cluster is None:
        cluster = SimCluster(topology.world_size, ranks_per_node=sp)
    elif cluster.n_ranks != topology.world_size:
        raise ValueError(f"cluster of {cluster.n_ranks} ranks cannot host "
                         f"the {topology.world_size} of {topology}")
    b, h, w, dim = image.shape
    heads, head_dim = attention.heads, attention.head_dim
    w_qkv = attention.qkv.weight.data          # (D, 3D)
    w_out = attention.out.weight.data          # (D, D)
    cos, sin = rope_tables(window, head_dim)
    sharding = window_sharding((h, w), window, topology.wp_grid)

    out_shards = []
    for wp_rank, stack in enumerate(sharding.shard(image, shifted, cluster)):
        n_win = stack.shape[1]             # per WP rank: (B, nW, T, D)
        packed = []
        for start in range(0, step * sp, step):
            # One SP rank's tokens: a local qkv GEMM (Megatron-style), then
            # RoPE at their *global* within-window coordinates, Q and K
            # rotated together in the packed order the projection produced.
            rows = slice(start, start + step)
            qkv = fused_linear(stack[:, :, rows], w_qkv).reshape(
                b * n_win, step, 3, heads, head_dim)
            fused_apply_rotary(qkv[:, :, :2], cos[rows, None, None, :],
                               sin[rows, None, None, :])
            packed.append(qkv)
        attn = ulysses_attention(
            cluster, topology.sp_group(0, 0, wp_rank),
            *([qkv[:, :, part] for qkv in packed] for part in range(3)))
        # Output projection on each SP rank's token shard, then re-join.
        out_shards.append(np.concatenate(
            [fused_linear(s.reshape(b, n_win, step, dim), w_out)
             for s in attn], axis=2))
    return sharding.unshard(out_shards, shifted, cluster)
