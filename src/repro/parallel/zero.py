"""ZeRO-1-style sharded optimizer (paper Section VI-C: "a Zero1-like
distributed optimizer ... custom-built").

Optimizer *states* (Adam moments) are partitioned across the data-parallel
group: each DP rank owns the moments of its parameter shard, updates that
shard after the gradient allreduce, and an allgather distributes the updated
parameters to everyone.  Model parameters and gradients stay replicated —
that is what distinguishes ZeRO-1 from ZeRO-2/3.  In one process the
partition is an owner table over one :class:`~repro.nn.AdamW`'s
parameter-ordered moments, so a checkpoint is the same under any DP degree.
"""

from __future__ import annotations

from ..nn import AdamW, Parameter
from .comm import SimCluster

__all__ = ["ZeroOptimizer"]


class ZeroOptimizer(AdamW):
    """AdamW whose moments are owned round-robin by the ``dp_group`` ranks.

    ``shard_of[i]`` is the position in ``dp_group`` of the rank that owns
    parameter ``i``; round-robin by index balances shard sizes well for the
    many-equal-blocks structure of a transformer.
    """

    def __init__(self, params: list[Parameter], cluster: SimCluster,
                 dp_group: list[int], **adamw):
        """``adamw``: :class:`~repro.nn.AdamW`'s ``lr`` and
        ``weight_decay``."""
        super().__init__(params, **adamw)
        self.cluster = cluster
        self.dp_group = dp_group
        self.dp = len(dp_group)
        self.shard_of = [i % self.dp for i in range(len(self.params))]

    def step(self) -> None:
        """Each DP rank updates its shard, then parameters are allgathered
        (fault-aware: a dead or faulty DP rank surfaces here too).

        (Gradients are assumed already averaged across DP — see
        :mod:`repro.parallel.data_parallel`.)
        """
        super().step()
        if self.dp > 1:
            for i, p in enumerate(self.params):
                owner = self.dp_group[self.shard_of[i]]
                for rank in self.dp_group:
                    if rank != owner:
                        self.cluster.transfer("allgather", owner, rank,
                                              p.data.nbytes, payload=p.data)

    def state_bytes_on(self, shard: int) -> int:
        """Moment bytes held by the rank at position ``shard``."""
        return sum(m.nbytes + v.nbytes for owner, m, v in
                   zip(self.shard_of, self.exp_avg, self.exp_avg_sq)
                   if owner == shard)
