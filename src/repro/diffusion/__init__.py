"""TrigFlow diffusion: objective, weighted loss, PFODE solver, forecaster."""

from .consistency import ConsistencyConfig, ConsistencyDistiller, consistency_jump
from .loss import weighted_velocity_loss
from .sampler import Normalizer, ResidualForecaster, member_rngs, member_seed
from .solver import DpmSolver2S, SolverConfig
from .trigflow import TrigFlow

__all__ = [
    "TrigFlow", "DpmSolver2S", "SolverConfig",
    "weighted_velocity_loss",
    "ResidualForecaster", "Normalizer", "member_seed", "member_rngs",
    "ConsistencyDistiller", "ConsistencyConfig", "consistency_jump",
]
