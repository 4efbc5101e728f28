"""Data parallelism: replicated models, split batches, gradient allreduce.

Gradient reductions are performed in FP32 (the paper's mixed-precision rule)
and averaged across the DP group; the allreduce volume is metered so the
communication-model tests can check it is *independent of WP* (the paper:
"the overhead from gradient allreduce remains unchanged" when WP is
enabled).
"""

from __future__ import annotations

import numpy as np

from ..nn import Module
from .comm import SimCluster

__all__ = ["allreduce_gradients"]


def allreduce_gradients(cluster: SimCluster, dp_group: list[int],
                        replicas: list[Module]) -> None:
    """Average parameter gradients across replicas, in place.

    Replicas without a gradient for some parameter contribute zeros (this
    matches frameworks that materialize zero grads before the reduction).
    A one-rank group has nothing to reduce.
    """
    if len(replicas) != len(dp_group):
        raise ValueError("one replica per DP rank required")
    if len(dp_group) == 1:
        return
    param_lists = [list(r.parameters()) for r in replicas]
    n_params = len(param_lists[0])
    if any(len(pl) != n_params for pl in param_lists):
        raise ValueError("replicas disagree on parameter count")
    dp = len(dp_group)
    for i in range(n_params):
        grads = []
        for pl in param_lists:
            p = pl[i]
            grads.append(p.grad if p.grad is not None
                         else np.zeros_like(p.data))
        reduced = cluster.allreduce(dp_group, grads)
        for pl, r in zip(param_lists, reduced):
            pl[i].grad = r / dp
