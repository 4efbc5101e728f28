"""Data substrate: toy GCM, synthetic reanalysis, grids, forcings, loaders."""

from .era5 import ReanalysisConfig, SyntheticReanalysis
from .forcings import (
    DAYS_PER_YEAR,
    STEPS_PER_DAY,
    STEPS_PER_YEAR,
    ForcingProvider,
    StaticFields,
    toa_solar,
)
from .gcm import GcmConfig, GcmState, Heatwave, ToyGCM, TropicalCyclone
from .grid import LatLonGrid
from .loader import ShardedWindowLoader
from .normalize import FieldNormalizer
from .variables import ERA5_FULL, PRESSURE_LEVELS, TOY_SET, Variable, VariableSet

__all__ = [
    "LatLonGrid", "FieldNormalizer",
    "Variable", "VariableSet", "ERA5_FULL", "TOY_SET", "PRESSURE_LEVELS",
    "GcmConfig", "GcmState", "ToyGCM", "TropicalCyclone", "Heatwave",
    "StaticFields", "ForcingProvider", "toa_solar",
    "STEPS_PER_DAY", "STEPS_PER_YEAR", "DAYS_PER_YEAR",
    "ReanalysisConfig", "SyntheticReanalysis",
    "ShardedWindowLoader",
]
