"""Consistency distillation (paper Section VII-C):

    "Our diffusion parameterization also allows for consistency
    distillation [50], which allows us to compress the model size and
    reduce inference to a single step, thereby lowering computational cost
    by orders of magnitude for generating new forecasts."

TrigFlow (Lu & Song) defines the consistency function

    f(x_t, t) = cos(t) x_t − sin(t) σ_d F_θ(x_t / σ_d, t),

the one-step jump from any point on a PFODE trajectory back to its ``t=0``
endpoint.  Distillation trains a student ``F_φ`` so that its jump from
``x_t`` matches the teacher-ODE-consistent jump from a *less noisy* point
``x_s`` on the same trajectory (obtained by one teacher solver step),
evaluated by the student with stopped gradients — the standard discrete
consistency-distillation objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import ConstantLR, Module
from ..tensor import Tensor
from ..train.trainer import ONE_RANK, Batch, TrainingEngine
from .sampler import bound_network
from .solver import SolverConfig
from .trigflow import TrigFlow

__all__ = ["ConsistencyConfig", "ConsistencyDistiller", "consistency_jump"]


def consistency_jump(flow: TrigFlow, x_t: np.ndarray, velocity: np.ndarray,
                     t: np.ndarray) -> np.ndarray:
    """TrigFlow consistency function: ``cos(t) x_t − sin(t) v``."""
    return flow.denoise_from_velocity(x_t, velocity, t)


# Distillation hyperparameters.
N_BOUNDARY_STEPS = 8      # discretization of [t_min, pi/2]
LR = 1e-3
EMA_HALFLIFE_IMAGES = 500.0


@dataclass(frozen=True)
class ConsistencyConfig:
    """What a distillation run varies: the seed of its two generators."""

    seed: int = 0


class ConsistencyDistiller(TrainingEngine):
    """Distills a trained TrigFlow teacher into a one-step student: the
    training engine (:class:`~repro.train.TrainingEngine`) at one rank,
    on the caller's batches, with the teacher-target jump as its loss.

    Both teacher and student share the AERIS call signature
    ``model(x_t, t, cond, forc)``.  The student is typically initialized
    from the teacher's weights.
    """

    def __init__(self, teacher: Module, student: Module,
                 config: ConsistencyConfig = ConsistencyConfig()):
        super().__init__([student], ONE_RANK, schedule=ConstantLR(LR),
                         weight_decay=0.0,
                         ema_halflife=EMA_HALFLIFE_IMAGES, seed=config.seed,
                         noise_offsets=(1, 2), injector=None)
        self.teacher = teacher
        self.student = student
        self.flow = TrigFlow()
        self.config = config
        # no archive: a checkpoint's lineage carries no normalizer stats
        self.state_norm = self.residual_norm = self.forcing_norm = None
        # Boundary times: log-uniform in tan(t), densest near t_min.
        taus = np.linspace(np.log(self.flow.sigma_min),
                           np.log(self.flow.sigma_max),
                           N_BOUNDARY_STEPS + 1)
        self.boundaries = self.flow.tau_to_t(taus)  # increasing

    # -- teacher utilities ---------------------------------------------------
    def _velocity(self, model: Module, x: np.ndarray, t: np.ndarray,
                  cond: np.ndarray, forc: np.ndarray) -> np.ndarray:
        return self.flow.velocity(bound_network(model, cond, forc), x, t)

    def _teacher_ode_step(self, x_t: np.ndarray, t: np.ndarray,
                          s: np.ndarray, cond: np.ndarray,
                          forc: np.ndarray) -> np.ndarray:
        """One midpoint step of the teacher PFODE from time t down to s
        (``DpmSolver2S._step`` at per-sample float32 times, with the
        mid-time as ``0.5 * (t + s)`` — not bit-equal to ``t + 0.5 * h``
        on every pair, so not folded into it)."""
        h = (s - t).reshape((-1,) + (1,) * (x_t.ndim - 1))
        v1 = self._velocity(self.teacher, x_t, t, cond, forc)
        x_mid = x_t + 0.5 * h * v1
        v2 = self._velocity(self.teacher, x_mid, 0.5 * (t + s), cond, forc)
        return x_t + h * v2

    def _student_jump(self, x: np.ndarray, t: np.ndarray, cond: np.ndarray,
                      forc: np.ndarray) -> np.ndarray:
        """The student's consistency function, without a graph."""
        return consistency_jump(
            self.flow, x, self._velocity(self.student, x, t, cond, forc), t)

    # -- one distillation step -----------------------------------------------
    def train_step(self, x0: np.ndarray, cond: np.ndarray,
                   forc: np.ndarray) -> float:
        """``x0``: clean (standardized residual) targets, ``(B, H, W, C)``."""
        return self._run(lambda: self._draw(x0, cond, forc))

    def _draw(self, x0: np.ndarray, cond: np.ndarray,
              forc: np.ndarray) -> Batch:
        batch = x0.shape[0]
        # Sample a boundary interval [s, t] per sample.
        idx = self.rng_t.integers(1, len(self.boundaries), size=batch)
        t = self.boundaries[idx].astype(np.float32)
        s = self.boundaries[idx - 1].astype(np.float32)
        z = self.rng_z.normal(0.0, self.flow.sigma_d,
                              size=x0.shape).astype(np.float32)
        x_t = self.flow.interpolate(x0, z, t)
        # Teacher moves x_t -> x_s along the PFODE; the EMA student's jump
        # from x_s is the (stop-gradient) target.
        x_s = self._teacher_ode_step(x_t, t, s, cond, forc)
        target = self._student_jump(x_s, s, cond, forc)
        ct, st = TrigFlow._angles(t, x_t.ndim)

        def loss(out: Tensor, rows: slice) -> Tensor:
            """The student's jump from ``x_t`` (with its graph) against
            the target."""
            pred = (Tensor((ct * x_t)[rows])
                    - Tensor(st[rows]) * (out * self.flow.sigma_d))
            return ((pred - Tensor(target[rows])) ** 2).mean()

        return Batch((x_t / self.flow.sigma_d, t, cond, forc), loss)

    # -- one-step inference ----------------------------------------------------
    def sample_one_step(self, cond: np.ndarray, forc: np.ndarray,
                        rng: np.random.Generator,
                        use_ema: bool = False) -> np.ndarray:
        """Single-network-evaluation sample: jump from pure noise at
        ``t = pi/2`` directly to ``t = 0``."""
        model = self.student
        if use_ema:
            saved = model.state_dict()
            self.ema.copy_to(model)
        z = rng.normal(0.0, self.flow.sigma_d,
                       size=cond.shape).astype(np.float32)
        t = np.full(cond.shape[0] if cond.ndim == 4 else 1, np.pi / 2,
                    dtype=np.float32)
        x = z if cond.ndim == 4 else z[None]
        c = cond if cond.ndim == 4 else cond[None]
        f = forc if forc.ndim == 4 else forc[None]
        try:
            out = self._student_jump(x, t, c, f)
        finally:
            if use_ema:   # also when the forward raised
                model.load_state_dict(saved)
        return out if cond.ndim == 4 else out[0]

    def teacher_sample_cost(self, solver_config: SolverConfig) -> int:
        """Network evaluations per forecast step for the diffusion teacher
        (2 per 2S solver step) vs 1 for the consistency student."""
        return 2 * solver_config.n_steps
