"""Rank topology for SWiPe: DP × PP × WP × SP.

Following the paper (Figure 2b): SP groups are confined to a node (the
bandwidth-hungry all-to-alls ride the intra-node fabric); a model instance
occupies WP × PP nodes; data parallelism replicates instances.

Global rank layout (slowest to fastest): dp, pp, wp, sp — so the SP group of
a rank is a contiguous block, which is exactly one simulated node when the
cluster is built with ``ranks_per_node = sp``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RankTopology"]


@dataclass(frozen=True)
class RankTopology:
    dp: int
    pp: int
    wp_grid: tuple[int, int]
    sp: int

    @property
    def wp(self) -> int:
        return self.wp_grid[0] * self.wp_grid[1]

    @property
    def world_size(self) -> int:
        return self.dp * self.pp * self.wp * self.sp

    @property
    def nodes(self) -> int:
        return self.dp * self.pp * self.wp

    # -- rank <-> coordinates -----------------------------------------------
    def rank_of(self, dp: int, pp: int, wp: int, sp: int) -> int:
        self._check(dp, pp, wp, sp)
        return ((dp * self.pp + pp) * self.wp + wp) * self.sp + sp

    def coords_of(self, rank: int) -> tuple[int, int, int, int]:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range")
        sp = rank % self.sp
        rank //= self.sp
        wp = rank % self.wp
        rank //= self.wp
        pp = rank % self.pp
        dp = rank // self.pp
        return dp, pp, wp, sp

    def _check(self, dp: int, pp: int, wp: int, sp: int) -> None:
        if not (0 <= dp < self.dp and 0 <= pp < self.pp
                and 0 <= wp < self.wp and 0 <= sp < self.sp):
            raise ValueError(f"coords ({dp},{pp},{wp},{sp}) out of range")

    # -- groups ----------------------------------------------------------------
    def sp_group(self, dp: int, pp: int, wp: int) -> list[int]:
        """All SP ranks sharing one (dp, pp, wp) — one node."""
        return [self.rank_of(dp, pp, wp, s) for s in range(self.sp)]

    def dp_group(self, pp: int, wp: int, sp: int) -> list[int]:
        return [self.rank_of(d, pp, wp, sp) for d in range(self.dp)]

    # -- elastic re-grid ---------------------------------------------------
    def degrade(self, dead_ranks) -> "RankTopology":
        """The surviving-rank topology after fail-stop deaths.

        Policy (in order), mirroring what an elastic launcher would do:

        1. drop every DP replica that contains a dead rank — gradient
           math is unchanged, throughput shrinks;
        2. if no replica survives, shed the model-parallel degrees that a
           restart can rebalance — reduce SP first, then shrink the WP
           grid (the pipeline depth PP is the model's stage structure and
           cannot shrink) — repeatedly, until the shrunken grid fits onto
           the *surviving* rank count (a single shed can still demand
           more ranks than are alive, which would re-grid onto dead
           ranks);
        3. if nothing sheddable remains, raise
           :class:`~repro.resilience.ClusterFailure`.

        Rank ids in the returned topology are renumbered 0..world-1; the
        caller (:class:`~repro.resilience.ElasticSupervisor`) resets the
        fault injector's grid accordingly.
        """
        from ..resilience.faults import ClusterFailure
        dead = set(dead_ranks)
        if not dead:
            return self
        affected = {self.coords_of(r)[0] for r in dead}
        surviving_dp = self.dp - len(affected)
        if surviving_dp >= 1:
            return RankTopology(surviving_dp, self.pp, self.wp_grid, self.sp)
        alive = self.world_size - len(dead)
        sp = self.sp
        w0, w1 = self.wp_grid
        shed = False
        while not shed or self.dp * self.pp * w0 * w1 * sp > alive:
            if sp > 1:
                sp -= 1
            elif w1 > 1:
                w1 -= 1
            elif w0 > 1:
                w0 -= 1
            else:
                raise ClusterFailure(
                    f"no viable degraded topology: {len(dead)} dead "
                    f"rank(s) in a DP={self.dp}, PP={self.pp}, "
                    f"WP={self.wp}, SP={self.sp} grid")
            shed = True
        return RankTopology(self.dp, self.pp, (w0, w1), sp)
