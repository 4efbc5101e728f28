"""SWiPe: the composed hybrid parallel training engine
(DP × PP × WP × SP, paper Section V-A).

:class:`SwipeEngine` is the one training engine
(:class:`~repro.train.TrainingEngine`) at a ``DP × PP`` topology, on the
caller's batches, at a constant learning rate with no EMA.  What runs
*numerically* in the simulation:

* **PP** — real pipelined forward/backward with activation/gradient handoff
  at stage boundaries and gradient accumulation over GAS microbatches
  (:class:`~repro.parallel.pipeline.AerisPipeline`).
* **DP** — split batches over one weight set: each replica's rows leave
  a gradient set, and the engine's update averages the sets by a metered
  ring allreduce (an FP64 sum divided by DP,
  :meth:`~repro.train.TrainingEngine._update`).  The replicas'
  forward/backward passes run at once, one group per core, the others on
  worker processes forked at the first step and kept, sent each step's
  batch (the weights are shared), their transfers (and faults) made by
  the caller (:class:`~repro.rows.KeptWorkers`); in one process under a
  GEMM guard, a FLOP counter or observability.
* **ZeRO-1** — real sharded optimizer states + allgather accounting
  (:mod:`~repro.parallel.zero`).
* **WP / SP** — the window/sequence sharded *attention numerics* run
  composed in :mod:`~repro.parallel.swipe_attention`, ``np.array_equal``
  to the single-process attention; its metered all-to-alls are the paper's
  ``M = b·s·h/SP/WP`` (:class:`~repro.perf.CommModel`), by an executed
  :func:`~repro.parallel.comm.comm_check`.  The training step runs every
  block's attention in one process.

At DP = 1 and GAS = 1 a step's loss and gradients are ``array_equal`` to
the single-process :class:`~repro.train.Trainer`'s on the same pair, at any
pipeline depth.  Across GAS and DP the engine matches it to ``rtol=1e-4``
(what ``test_matches_reference_trainer_step`` holds), not bit-for-bit: the
microbatch accumulation and the DP allreduce associate the FP32 sums
differently from one full-batch backward (ROADMAP fact (viii)).
"""

from __future__ import annotations

import numpy as np

from ..data import SyntheticReanalysis
from ..diffusion.trigflow import TrigFlow
from ..model import Aeris, AerisConfig
from ..nn import ConstantLR
from ..nn.optim import WEIGHT_DECAY
from ..train.trainer import Batch, TrainingEngine
from .topology import RankTopology

__all__ = ["SwipeEngine"]


class SwipeEngine(TrainingEngine):
    """Distributed training engine on a simulated cluster."""

    def __init__(self, config: AerisConfig, archive: SyntheticReanalysis,
                 topology: RankTopology, lr: float = 5e-4, seed: int = 0,
                 injector=None):
        super().__init__(
            Aeris(config, seed=seed), topology, schedule=ConstantLR(lr),
            weight_decay=WEIGHT_DECAY, ema_halflife=None, seed=seed,
            noise_offsets=(100, 900), injector=injector)
        self._use_archive(archive)
        self.config = config
        self.flow = TrigFlow()

    def make_training_pairs(self, residual: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """TrigFlow pairs for a *global* batch, honoring the seeding rule.

        The global batch is split evenly across DP replicas; within one
        replica every model-parallel shard would see the same ``t`` (shared
        generator) while noise fields stay independent.
        """
        per = self.rows_per_replica(residual.shape[0])
        x_t = np.empty_like(residual)
        t = np.empty(residual.shape[0], dtype=np.float32)
        v = np.empty_like(residual)
        for d in range(self.topology.dp):
            sl = slice(d * per, (d + 1) * per)
            x_t[sl], t[sl], v[sl] = self.flow.training_pair(
                residual[sl], self.rngs_t[d], self.rngs_z[d])
        return x_t, t, v

    def train_step(self, x_t: np.ndarray, t: np.ndarray, v_target: np.ndarray,
                   cond: np.ndarray, forc: np.ndarray, gas: int) -> float:
        """Full SWiPe step over a global batch. Returns the mean loss."""
        sigma_d = self.flow.sigma_d
        batch = Batch((x_t / sigma_d, t, cond, forc), (v_target, sigma_d))
        return self._run(lambda: batch, gas)
