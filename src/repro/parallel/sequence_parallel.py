"""Ulysses sequence parallelism (paper Section V-A).

Tokens of each window are flattened to a 1D sequence and sharded across the
SP ranks of a node.  Attention needs every token of a window, so before the
kernel an all-to-all re-partitions the data from *token-sharded, all heads*
to *all tokens, head-sharded*; a second all-to-all restores the token
sharding afterwards.  Both ride the intra-node fabric by construction.

Functions here operate on NumPy shards and an explicit
:class:`~repro.parallel.comm.SimCluster`, verifying (a) numerical
equivalence with unsharded attention and (b) the message-size formula
``M = b·s·h / SP / WP``.
"""

from __future__ import annotations

import numpy as np

from ..kernels import fused_dot_product_attention
from .comm import SimCluster

__all__ = ["shard_sequence", "ulysses_attention"]


def shard_sequence(tokens: np.ndarray, sp: int) -> list[np.ndarray]:
    """Split the token axis (third-from-last of ``(..., T, H, hd)``) into
    ``sp`` contiguous shards."""
    if tokens.shape[-3] % sp:
        raise ValueError(f"token axis {tokens.shape[-3]} not divisible by SP={sp}")
    return [chunk.copy() for chunk in np.split(tokens, sp, axis=-3)]


def ulysses_attention(cluster: SimCluster, sp_group: list[int],
                      q_shards: list[np.ndarray], k_shards: list[np.ndarray],
                      v_shards: list[np.ndarray]) -> list[np.ndarray]:
    """Sequence-parallel attention over per-rank token shards.

    Each shard has shape ``(..., T/SP, H, hd)`` (token-sharded, all heads).
    Returns shards of the same shape containing the attention output.

    The two metered all-to-alls re-partition to ``(..., T, H/SP, hd)`` and
    back; heads must be divisible by SP.
    """
    sp = len(sp_group)
    heads = q_shards[0].shape[-2]
    if heads % sp:
        raise ValueError(f"heads {heads} not divisible by SP={sp}")

    def alltoall(shards: list[np.ndarray], split: int, join: int):
        # chunks[i][j]: what rank i holds for rank j, cut along ``split``;
        # rank j joins what it received from every source along ``join``.
        chunks = [np.split(s, sp, axis=split) for s in shards]
        return [np.concatenate(row, axis=join)
                for row in cluster.alltoall(sp_group, chunks)]

    # Token-sharded, all heads -> all tokens, H/SP heads, then stacked (a
    # local copy) into the packed layout the model's own attention core
    # takes; it writes token-major.
    full = [alltoall(s, -2, -3) for s in (q_shards, k_shards, v_shards)]
    return alltoall([fused_dot_product_attention(np.stack(qkv, axis=-3))
                     for qkv in zip(*full)], -3, -2)
