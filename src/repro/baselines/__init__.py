"""Baselines the paper compares against (or that motivate its design)."""

from .climatology import ClimatologyForecaster
from .deterministic import DeterministicTrainer
from .gencast_like import EdmConfig, EdmTrainer
from .numerical import NumericalEnsemble, NumericalEnsembleConfig
from .persistence import persistence_forecast

__all__ = [
    "persistence_forecast", "ClimatologyForecaster",
    "DeterministicTrainer",
    "EdmConfig", "EdmTrainer",
    "NumericalEnsemble", "NumericalEnsembleConfig",
]
