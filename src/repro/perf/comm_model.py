"""Communication-time model (paper Section V-A, "Communication overhead").

Message sizes follow the paper's formula ``M = b·s·h / SP / WP`` (bytes: ×2
for BF16 activations).  Three flows matter:

* **alltoall** (SP/WP, intra-node): before and after every attention —
  rides the scale-up fabric;
* **send/recv** (PP, inter-node): stage-boundary activations — overlappable
  with compute;
* **allreduce** (DP, inter-node): FP32 gradients once per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import AerisConfig
from ..parallel.topology import RankTopology
from .machine import Machine

__all__ = ["CommModel"]

_BF16 = 2
_FP32 = 4


@dataclass(frozen=True)
class CommModel:
    config: AerisConfig
    machine: Machine
    topology: RankTopology

    # -- message sizes -----------------------------------------------------
    def alltoall_message_bytes(self, micro_batch: int) -> int:
        """M = b·s·h/SP/WP in BF16 — the per-rank activation shard."""
        cfg, topo = self.config, self.topology
        return (micro_batch * cfg.seq_len * cfg.dim * _BF16
                // (topo.sp * topo.wp))

    def grad_allreduce_bytes(self) -> int:
        """FP32 gradient volume per rank: independent of WP (paper claim).

        Ring allreduce moves ~2x the shard; each rank owns 1/(PP) of the
        parameters (layer stages) — WP/SP replicate parameters.
        """
        from ..model import count_parameters
        params = count_parameters(self.config)
        per_rank = params // self.topology.pp
        return int(2 * per_rank * _FP32 * (self.topology.dp - 1)
                   / max(self.topology.dp, 1))

    # -- times per microbatch ----------------------------------------------
    def alltoall_time_per_block(self, micro_batch: int) -> float:
        """Two all-to-alls (qkv in ~3M, out ~M) per attention, forward;
        backward doubles it. Intra-node bandwidth."""
        m = self.alltoall_message_bytes(micro_batch)
        bw = self.machine.scaleup_bw_gbs * 1e9
        return 3 * (4 * m) / bw  # fwd (4M) + bwd (8M) = 12M total
