"""Elastic supervision: SWiPe training that survives injected faults.

The :class:`ElasticSupervisor` is the simulated analogue of the job-level
restart logic a 10,080-node AERIS run needs: it drives the
:class:`~repro.parallel.swipe.SwipeEngine` step by step under a
:class:`~repro.resilience.faults.FaultInjector`, and when a fail-stop
surfaces as :class:`~repro.resilience.faults.RankFailure` it

1. **re-grids** — :meth:`RankTopology.degrade` drops the DP replicas that
   contained dead ranks (falling back to shrinking SP, then WP),
2. **rebuilds** the engine on the surviving-rank topology (the injector's
   grid is reset: survivors are renumbered),
3. **reloads** the newest checkpoint that passes integrity verification
   (:class:`~repro.train.checkpoint.CheckpointCorruption` falls back to
   the previous one), restoring weights, parameter-ordered optimizer
   moments, and the surviving replicas' rng streams,
4. and **continues** from the checkpointed step.

Transient faults (bit flips, drops, stragglers) never reach the
supervisor — the comm layer's checksum-verify-retry heals them
bit-exactly — so a transient-only chaos run reproduces the fault-free
trajectory exactly.  After an elastic re-grid the batch splits across a
different DP degree, so the trajectory is close but not bit-identical
(see DESIGN.md for the tolerance discussion).

Batches are sampled per *step* from ``default_rng([seed, 7777, step])``,
not from one evolving stream, so a replay after recovery resamples the
very same batches it would have seen without the failure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..data import SyntheticReanalysis
from ..model import AerisConfig
from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..parallel.swipe import SwipeEngine
from ..parallel.topology import RankTopology
from ..train.checkpoint import newest_valid_checkpoint
from .faults import (ClusterFailure, FaultInjector, FaultPlan, RankFailure,
                     count_dead_ranks)

__all__ = ["SupervisorConfig", "ElasticSupervisor"]

#: Spawn-key constant separating the batch-sampling stream from every
#: other seeded stream in the run.
_BATCH_STREAM = 7777

#: Learning rate of every supervised run (constant: chaos runs are short).
LR = 1e-3


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for one supervised chaos run."""

    seed: int = 0
    global_batch: int = 8
    gas: int = 2
    save_every: int = 1
    checkpoint_root: str = "checkpoints"
    max_restarts: int = 4


class ElasticSupervisor:
    """Run SWiPe training to completion across injected failures."""

    def __init__(self, model_config: AerisConfig,
                 archive: SyntheticReanalysis, topology: RankTopology,
                 config: SupervisorConfig = SupervisorConfig(),
                 fault_plan: FaultPlan | None = None):
        self.model_config = model_config
        self.archive = archive
        self.cfg = config
        self.topology = topology
        self.injector = FaultInjector(fault_plan if fault_plan is not None
                                      else FaultPlan())
        self.train_indices = archive.split_indices("train")
        self.recoveries: list[dict] = []
        self.restarts = 0
        self._build_engine()

    @property
    def history(self) -> list[float]:
        """Losses of the completed steps (the engine's; a recovery
        restores them with the checkpoint)."""
        return self.engine.history

    # -- engine lifecycle --------------------------------------------------
    def _build_engine(self) -> None:
        self.engine = SwipeEngine(self.model_config, self.archive,
                                  self.topology, lr=LR,
                                  seed=self.cfg.seed, injector=self.injector)
        # a global batch DP does not divide is refused here, not mid-run
        self.engine.rows_per_replica(self.cfg.global_batch)
        _gauge("resilience.world_size", "ranks in the current grid",
               self.topology.world_size)

    # -- main loop ---------------------------------------------------------
    def run(self, n_steps: int) -> dict:
        """Train for ``n_steps`` completed steps; recover as needed.

        Returns ``{"history", "recoveries", "restarts", "final_step"}``.
        """
        while len(self.history) < n_steps:
            step = len(self.history)
            self.injector.advance(step)
            try:
                self._train_one(step)
            except RankFailure as failure:
                self._recover(step, failure)
                continue
            done = len(self.history)
            if self.cfg.save_every and (done % self.cfg.save_every == 0
                                        or done == n_steps):
                self.engine.save(os.path.join(self.cfg.checkpoint_root,
                                              f"step-{done:08d}"))
        return {"history": list(self.history),
                "recoveries": list(self.recoveries),
                "restarts": self.restarts,
                "final_step": len(self.history)}

    def _train_one(self, step: int) -> float:
        # Per-step generator: a replay after recovery resamples the exact
        # batch this step would have seen in the fault-free run.
        rng = np.random.default_rng([self.cfg.seed, _BATCH_STREAM, step])
        indices = rng.choice(self.train_indices,
                             size=self.cfg.global_batch, replace=False)
        engine = self.engine
        cond, residual, forc = self.archive.training_batch(
            indices, engine.state_norm, engine.residual_norm,
            engine.forcing_norm)
        x_t, t, v = engine.make_training_pairs(residual)
        return engine.train_step(x_t, t, v, cond, forc, gas=self.cfg.gas)

    # -- checkpointing -----------------------------------------------------
    def _restore_latest(self) -> str | None:
        """Load the newest checkpoint that verifies; corrupt ones fall
        back to the previous.  Returns the directory used (``None`` means
        restart from scratch: the fresh engine's empty history)."""
        directory, shards, extra = newest_valid_checkpoint(
            self.cfg.checkpoint_root)
        if directory is not None:
            self.engine.restore(shards, extra, where=directory)
        return directory

    # -- recovery ----------------------------------------------------------
    def _recover(self, step: int, failure: RankFailure) -> None:
        self.restarts += 1
        if self.restarts > self.cfg.max_restarts:
            raise ClusterFailure(
                f"restart budget exhausted ({self.cfg.max_restarts}) at "
                f"step {step}") from failure
        dead = sorted(self.injector.dead)
        old = self.topology
        with _span("resilience.recovery", category="resilience", step=step,
                   dead_ranks=str(dead), old_world=old.world_size):
            self.topology = old.degrade(dead)
            self.injector.reset_grid()
            self._build_engine()
            restored_from = self._restore_latest()
        record = {"step": step, "dead_ranks": dead,
                  "world_size": [old.world_size, self.topology.world_size],
                  "dp": [old.dp, self.topology.dp],
                  "layout": (f"dp{self.topology.dp}.pp{self.topology.pp}"
                             f".wp{self.topology.wp_grid[0]}x"
                             f"{self.topology.wp_grid[1]}"
                             f".sp{self.topology.sp}"),
                  "resumed_at_step": len(self.history),
                  "restored_from": restored_from}
        self.recoveries.append(record)
        _count("resilience.recoveries", "elastic re-grid recoveries")
        count_dead_ranks(len(dead))
        _record_event("resilience.recovery", subsystem="resilience",
                      severity="critical", step=step, dead_ranks=dead,
                      world_size=self.topology.world_size,
                      restored_from=restored_from)

    # -- evaluation --------------------------------------------------------
    def validation_loss(self, batch_size: int = 8, n_batches: int = 2,
                        seed: int = 1234) -> float:
        """Fixed-seed held-out loss — directly comparable across faulted
        and fault-free runs (the trainer's evaluation)."""
        return self.engine.held_out_loss(batch_size, n_batches, seed)
