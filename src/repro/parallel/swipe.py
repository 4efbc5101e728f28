"""SWiPe: the composed hybrid parallel training engine
(DP × PP × WP × SP, paper Section V-A).

What runs *numerically* in the simulation:

* **PP** — real pipelined forward/backward with activation/gradient handoff
  at stage boundaries and gradient accumulation over GAS microbatches
  (:class:`~repro.parallel.pipeline.AerisPipeline`).
* **DP** — real replicated models, split batches, metered FP32 gradient
  allreduce (:mod:`~repro.parallel.data_parallel`).
* **ZeRO-1** — real sharded optimizer states + allgather accounting
  (:mod:`~repro.parallel.zero`).
* **WP / SP** — the window/sequence sharded *attention numerics* run
  composed in :mod:`~repro.parallel.swipe_attention`, ``np.array_equal``
  to the single-process attention; its metered all-to-alls are the paper's
  ``M = b·s·h/SP/WP`` (:class:`~repro.perf.CommModel`), by an executed
  :func:`~repro.parallel.comm.comm_check`.

The engine's loss and weights after a step match the single-process
reference trainer to ``rtol=1e-4`` (what
``test_matches_reference_trainer_step`` holds), not bit-for-bit: the
microbatch accumulation and the DP allreduce associate the FP32 sums
differently from one full-batch backward (ROADMAP fact (viii)).
"""

from __future__ import annotations

import numpy as np

from ..data import SyntheticReanalysis, TOY_SET
from ..diffusion import TrigFlow, weighted_velocity_loss
from ..model import Aeris, AerisConfig
from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..obs.profile import span as _span
from ..tensor import Tensor
from ..train.checkpoint import restore_training_shards, training_shards
from .comm import SimCluster
from .data_parallel import allreduce_gradients
from .pipeline import AerisPipeline
from .topology import RankTopology
from .zero import ZeroOptimizer

__all__ = ["SwipeEngine"]


class SwipeEngine:
    """Distributed training engine on a simulated cluster."""

    def __init__(self, config: AerisConfig, archive: SyntheticReanalysis,
                 topology: RankTopology, lr: float = 5e-4, seed: int = 0,
                 injector=None):
        if config.channels != len(TOY_SET):
            raise ValueError("model channels must match the archive")
        self.config = config
        self.archive = archive
        self.topology = topology
        self.flow = TrigFlow()
        self.injector = injector
        self.cluster = SimCluster(topology.world_size,
                                  ranks_per_node=topology.sp,
                                  injector=injector)
        # DP replicas start from identical weights (same seed).
        self.replicas = [Aeris(config, seed=seed) for _ in range(topology.dp)]
        self.pipelines = [
            AerisPipeline(replica, self.cluster,
                          pp_group=[topology.rank_of(d, p, 0, 0)
                                    for p in range(topology.pp)],
                          name=f"dp{d}")
            for d, replica in enumerate(self.replicas)
        ]
        self.dp_group = topology.dp_group(pp=0, wp=0, sp=0)
        self.zero = ZeroOptimizer(self.replicas[0].parameters(), self.cluster,
                                  self.dp_group, lr=lr)
        self.lat_weights = archive.grid.latitude_weights()
        self.var_weights = np.asarray(TOY_SET.kappa_weights())
        # Noise seeding per the paper: the diffusion-time generator is shared
        # by all model-parallel ranks of a DP replica (one generator per
        # replica); the Gaussian noise is independent everywhere.
        self.rngs_t = [np.random.default_rng(seed + 100 + d)
                       for d in range(topology.dp)]
        self.rngs_z = [np.random.default_rng(seed + 900 + d)
                       for d in range(topology.dp)]

    # -- data preparation -------------------------------------------------------
    def _per_replica(self, batch: int) -> int:
        """Rows per DP replica of a global batch of ``batch`` rows."""
        dp = self.topology.dp
        if batch % dp:
            raise ValueError(f"global batch {batch} not divisible by DP={dp}")
        return batch // dp

    def make_training_pairs(self, residual: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """TrigFlow pairs for a *global* batch, honoring the seeding rule.

        The global batch is split evenly across DP replicas; within one
        replica every model-parallel shard would see the same ``t`` (shared
        generator) while noise fields stay independent.
        """
        per = self._per_replica(residual.shape[0])
        x_t = np.empty_like(residual)
        t = np.empty(residual.shape[0], dtype=np.float32)
        v = np.empty_like(residual)
        for d in range(self.topology.dp):
            sl = slice(d * per, (d + 1) * per)
            x_t[sl], t[sl], v[sl] = self.flow.training_pair(
                residual[sl], self.rngs_t[d], self.rngs_z[d])
        return x_t, t, v

    # -- one optimization step --------------------------------------------------
    def train_step(self, x_t: np.ndarray, t: np.ndarray, v_target: np.ndarray,
                   cond: np.ndarray, forc: np.ndarray, gas: int) -> float:
        """Full SWiPe step over a global batch. Returns the mean loss."""
        topo = self.topology
        dp = topo.dp
        batch = x_t.shape[0]
        per = self._per_replica(batch)
        losses = []
        with _span("swipe.step", category="swipe", dp=dp, gas=gas,
                   batch=batch):
            for replica in self.replicas:
                replica.zero_grad()
            for d, pipeline in enumerate(self.pipelines):
                sl = slice(d * per, (d + 1) * per)
                target = v_target[sl]

                def loss_fn(pred: Tensor, micro_slice: slice) -> Tensor:
                    mb_target = target[micro_slice]
                    return weighted_velocity_loss(
                        pred * self.flow.sigma_d, mb_target, self.lat_weights,
                        self.var_weights) * (1.0 / gas)

                with _span("swipe.pipeline_fb", category="swipe", dp_rank=d):
                    losses.append(pipeline.forward_backward(
                        x_t[sl] / self.flow.sigma_d, t[sl], cond[sl],
                        forc[sl], loss_fn, n_micro=gas))
            # DP gradient allreduce (FP32), then sharded optimizer update.
            with _span("swipe.grad_allreduce", category="swipe"):
                allreduce_gradients(self.cluster, self.dp_group,
                                    self.replicas)
            with _span("swipe.zero_step", category="swipe"):
                self.zero.step()
            # ZeRO's allgather distributes updated weights; mirror to
            # replicas.
            with _span("swipe.sync_replicas", category="swipe"):
                master = self.replicas[0].state_dict()
                for replica in self.replicas[1:]:
                    replica.load_state_dict(master)
        mean_loss = float(np.mean(losses))
        _count("swipe.steps", "SWiPe optimization steps")
        _count("swipe.samples", "global-batch samples consumed", batch)
        _gauge("swipe.loss", "last SWiPe step loss", mean_loss)
        return mean_loss

    # -- elastic checkpoint payload ---------------------------------------------
    def state_payload(self) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
        """``(shards, extra)`` for :func:`write_sharded_checkpoint`: the
        trainer's layout (:func:`~repro.train.checkpoint.training_shards`,
        aliasing the live arrays) plus the topology and rng states."""
        extra = {
            "topology": {"dp": self.topology.dp, "pp": self.topology.pp,
                         "wp_grid": list(self.topology.wp_grid),
                         "sp": self.topology.sp},
            "rng_t": [rng.bit_generator.state for rng in self.rngs_t],
            "rng_z": [rng.bit_generator.state for rng in self.rngs_z],
        }
        return training_shards(self.replicas[0], self.zero), extra

    def restore(self, shards: dict[str, dict[str, np.ndarray]],
                extra: dict | None = None, where: str = "payload") -> None:
        """Load a :meth:`state_payload` checkpoint into this engine.

        Works across topologies: the moments are parameter-ordered whatever
        the DP degree, every replica gets the model weights, and rng states
        are restored for the replicas that still exist (a degraded grid
        keeps the surviving replicas' streams bit-exact).  A generation
        that does not fit raises :class:`~repro.train.CheckpointError`."""
        restore_training_shards(shards, where, self.replicas[0], self.zero)
        for replica in self.replicas[1:]:
            replica.load_state_dict(shards["model"])
        for key, rngs in (("rng_t", self.rngs_t), ("rng_z", self.rngs_z)):
            for rng, state in zip(rngs, (extra or {}).get(key, [])):
                rng.bit_generator.state = state
