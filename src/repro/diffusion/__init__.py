"""TrigFlow diffusion: objective, weighted loss, PFODE solver, forecaster,
consistency distillation."""

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

#: The distiller is a constructor of :mod:`repro.train`'s engine, which
#: imports this package: lazy loading (PEP 562) keeps the layering acyclic.
_CONSISTENCY_EXPORTS = ("ConsistencyDistiller", "ConsistencyConfig",
                        "consistency_jump")


def __getattr__(name):
    if name in _CONSISTENCY_EXPORTS:
        from . import consistency
        return getattr(consistency, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
