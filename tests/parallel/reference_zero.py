"""The ZeRO-1 optimizer as it stood before it became an ``AdamW`` (one
``AdamW`` per DP shard plus a parameter-order rebuild of their moments),
kept verbatim as a differential oracle: ``test_zero_exact.py`` steps this
and the shipped :class:`repro.parallel.ZeroOptimizer` side by side and
requires ``array_equal`` weights and moments and equal ``CommStats``.
Test-only.

Copied from commit 47ca413 (``ZeroOptimizer``, renamed
``ReferenceZeroOptimizer``).  ``state_bytes_on`` sums the shard's moments
inline, because ``AdamW.state_bytes`` it called is gone.
"""

from __future__ import annotations

from repro.nn import AdamW, Parameter
from repro.parallel import SimCluster


class ReferenceZeroOptimizer:
    """AdamW with optimizer states sharded over ``dp_group``.

    Parameters are assigned round-robin by index, which balances shard sizes
    well for the many-equal-blocks structure of a transformer.
    """

    def __init__(self, params: list[Parameter], cluster: SimCluster,
                 dp_group: list[int], lr: float = 5e-4):
        self.params = list(params)
        self.cluster = cluster
        self.dp_group = dp_group
        self.dp = len(dp_group)
        self.shard_of = [i % self.dp for i in range(len(self.params))]
        # One AdamW per shard, holding states only for its own parameters.
        self.shard_optimizers = []
        for shard in range(self.dp):
            shard_params = [p for i, p in enumerate(self.params)
                            if self.shard_of[i] == shard]
            self.shard_optimizers.append(AdamW(shard_params, lr=lr))

    @property
    def lr(self) -> float:
        return self.shard_optimizers[0].lr

    @lr.setter
    def lr(self, value: float) -> None:
        for opt in self.shard_optimizers:
            opt.lr = value

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Each DP rank updates its shard, then parameters are allgathered.

        (Gradients are assumed already averaged across DP — the engine's
        :meth:`~repro.train.TrainingEngine._update` does it.)
        """
        for opt in self.shard_optimizers:
            opt.step()
        # Allgather the updated parameter shards (fault-aware: a dead or
        # faulty DP rank surfaces here too).
        if self.dp > 1:
            for i, p in enumerate(self.params):
                owner = self.dp_group[self.shard_of[i]]
                for rank in self.dp_group:
                    if rank != owner:
                        self.cluster.transfer("allgather", owner, rank,
                                              p.data.nbytes, payload=p.data)

    # -- checkpoint access (elastic recovery re-shards on load) ---------------
    @property
    def step_count(self) -> int:
        return self.shard_optimizers[0].step_count

    @step_count.setter
    def step_count(self, value: int) -> None:
        for opt in self.shard_optimizers:
            opt.step_count = int(value)

    def state_lists(self) -> tuple[list, list]:
        """Adam moments in *parameter order* (flat, shard-independent), so
        a checkpoint written under one DP degree restores under another —
        the elastic re-grid changes the sharding, not the state."""
        positions = [0] * self.dp
        exp_avg, exp_avg_sq = [], []
        for i in range(len(self.params)):
            shard = self.shard_of[i]
            k = positions[shard]
            positions[shard] += 1
            exp_avg.append(self.shard_optimizers[shard].exp_avg[k])
            exp_avg_sq.append(self.shard_optimizers[shard].exp_avg_sq[k])
        return exp_avg, exp_avg_sq

    def load_state_lists(self, exp_avg: list, exp_avg_sq: list,
                         step_count: int) -> None:
        """Restore flat parameter-ordered moments (in place) + step count."""
        own_m, own_v = self.state_lists()
        if len(exp_avg) != len(own_m) or len(exp_avg_sq) != len(own_v):
            raise ValueError("optimizer state count mismatch")
        for dst, src in zip(own_m, exp_avg):
            dst[...] = src
        for dst, src in zip(own_v, exp_avg_sq):
            dst[...] = src
        self.step_count = step_count

    # -- accounting ------------------------------------------------------------
    def state_bytes_on(self, shard: int) -> int:
        opt = self.shard_optimizers[shard]
        return sum(a.nbytes for a in opt.exp_avg + opt.exp_avg_sq)
