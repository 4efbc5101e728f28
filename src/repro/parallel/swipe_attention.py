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
The result is verified (in tests) to equal the single-process
:class:`~repro.nn.MultiHeadAttention` forward bit-for-bit (up to FP32
reduction order).
"""

from __future__ import annotations

import numpy as np

from ..kernels import rope_tables
from ..kernels.fused import rotate_pairs
from .comm import SimCluster
from .sequence_parallel import ulysses_attention
from .topology import RankTopology
from .window_parallel import window_sharding

__all__ = ["swipe_window_attention"]


def swipe_window_attention(image: np.ndarray, attention, window: tuple[int, int],
                           topology: RankTopology,
                           cluster: SimCluster | None = None,
                           shifted: bool = False, dp: int = 0, pp: int = 0
                           ) -> np.ndarray:
    """Run one windowed multi-head attention under WP x SP sharding.

    Parameters
    ----------
    image:
        ``(B, H, W, D)`` token grid.
    attention:
        A trained :class:`repro.nn.MultiHeadAttention` whose weights are
        used (its qkv/out projections and head layout).
    window / topology:
        Window shape and the DP×PP×WP×SP layout; ``dp``/``pp`` select the
        executing instance/stage for locality accounting.
    """
    cluster = cluster if cluster is not None else SimCluster(
        topology.world_size, ranks_per_node=topology.sp)
    heads = attention.heads
    head_dim = attention.head_dim
    dim = attention.dim
    w_qkv = attention.qkv.weight.data          # (D, 3D)
    w_out = attention.out.weight.data          # (D, D)
    cos, sin = rope_tables(window, head_dim)

    sharding = window_sharding((image.shape[1], image.shape[2]), window,
                               topology.wp_grid)
    sh, sw = window[0] // 2, window[1] // 2
    work = np.roll(image, (-sh, -sw), axis=(1, 2)) if shifted else image
    if shifted:
        from .window_parallel import shift_owner_change_bytes
        moved = shift_owner_change_bytes(
            sharding, image.dtype.itemsize * image.shape[0] * dim)
        cluster.stats.add("p2p", "inter", moved)
    wp_shards = sharding.shard(work)           # per WP rank: (B, nW, T, D)

    out_shards = []
    for wp_rank, stack in enumerate(wp_shards):
        sp_group = topology.sp_group(dp, pp, wp_rank)
        b, n_win, tokens, _ = stack.shape
        # SP-shard the window tokens: (B, nW, T/SP, D) per SP rank, with
        # qkv projected locally on each shard (Megatron-style local GEMMs).
        token_shards = np.split(stack, topology.sp, axis=2) \
            if topology.sp > 1 else [stack]
        q_shards, k_shards, v_shards = [], [], []
        rope_splits_cos = np.split(cos, topology.sp, axis=0) \
            if topology.sp > 1 else [cos]
        rope_splits_sin = np.split(sin, topology.sp, axis=0) \
            if topology.sp > 1 else [sin]
        for sp_rank, shard in enumerate(token_shards):
            qkv = shard @ w_qkv                 # (B, nW, T/SP, 3D)
            t_shard = shard.shape[2]
            qkv = qkv.reshape(b, n_win, t_shard, 3, heads, head_dim)
            # Rope uses the *global* within-window token coordinates owned
            # by this SP shard; Q and K rotate together, packed.
            qk = rotate_pairs(qkv[:, :, :, :2],
                              rope_splits_cos[sp_rank][:, None, None, :],
                              rope_splits_sin[sp_rank][:, None, None, :])
            # ulysses expects (..., T/SP, H, hd): fold (B, nW) into leading.
            for shards, part in ((q_shards, qk[:, :, :, 0]),
                                 (k_shards, qk[:, :, :, 1]),
                                 (v_shards, qkv[:, :, :, 2])):
                shards.append(part.reshape(b * n_win, t_shard, heads,
                                           head_dim))
        attn_shards = ulysses_attention(cluster, sp_group, q_shards,
                                        k_shards, v_shards)
        # Output projection on each SP rank's token shard, then re-join.
        projected = [
            (s.reshape(b, n_win, -1, dim) @ w_out) for s in attn_shards]
        out_shards.append(np.concatenate(projected, axis=2))
    out = sharding.unshard(out_shards)
    if shifted:
        out = np.roll(out, (sh, sw), axis=(1, 2))
        from .window_parallel import shift_owner_change_bytes
        moved = shift_owner_change_bytes(
            sharding, image.dtype.itemsize * image.shape[0] * dim)
        cluster.stats.add("p2p", "inter", moved)
    return out
