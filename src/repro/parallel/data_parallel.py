"""Data parallelism: one weight set, split batches, gradient allreduce.

Every DP replica holds the same weights; a replica is its rows of the
global batch and the gradient set its pipeline pass leaves.  Gradient
reductions are performed in FP32 (the paper's mixed-precision rule) and
averaged across the DP group; the allreduce volume is metered so the
communication-model tests can check it is *independent of WP* (the paper:
"the overhead from gradient allreduce remains unchanged" when WP is
enabled).
"""

from __future__ import annotations

import numpy as np

from ..nn import Parameter
from .comm import SimCluster

__all__ = ["allreduce_gradients"]


def allreduce_gradients(cluster: SimCluster, dp_group: list[int],
                        grads: list[list[np.ndarray | None]],
                        params: list[Parameter]) -> None:
    """Average ``grads`` — one gradient set per DP rank, each in
    ``params`` order — into ``params``' ``.grad``.

    A replica without a gradient for some parameter contributes zeros (this
    matches frameworks that materialize zero grads before the reduction).
    A one-rank group has nothing to reduce: its set is ``params``' own.
    """
    if len(grads) != len(dp_group):
        raise ValueError("one gradient set per DP rank required")
    if any(len(g) != len(params) for g in grads):
        raise ValueError("gradient sets disagree with the parameter count")
    if len(dp_group) == 1:
        return
    dp = len(dp_group)
    for i, p in enumerate(params):
        reduced = cluster.allreduce(dp_group, [
            g[i] if g[i] is not None else np.zeros_like(p.data)
            for g in grads])
        p.grad = reduced[0] / dp
