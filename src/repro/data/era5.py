"""The synthetic reanalysis archive (ERA5 stand-in).

Runs the toy GCM for a configurable number of years at 6-hourly cadence and
exposes the same interfaces the paper's pipeline needs: year-based
train/val/test splits (paper: 1979–2018 / 2019 / 2020), per-variable
training statistics for states and one-step residuals, day-of-year
climatology, training pair access, and *internal-state checkpoints* so the
perturbed-physics numerical baseline can be initialized at any analysis time
(standing in for operational data assimilation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcings import STEPS_PER_YEAR, ForcingProvider, StaticFields
from .gcm import GcmState, ToyGCM
from .grid import LatLonGrid
from .normalize import FieldNormalizer
from .variables import TOY_SET

__all__ = ["ReanalysisConfig", "SyntheticReanalysis"]

#: Archive steps between internal-state snapshots (2-daily).
CHECKPOINT_EVERY = 8


@dataclass(frozen=True)
class ReanalysisConfig:
    """Archive shape: grid size and split lengths in years."""

    height: int = 24
    width: int = 48
    train_years: float = 3.0
    val_years: float = 0.5
    test_years: float = 1.0
    seed: int = 0
    spinup_steps: int = 240

    @property
    def n_steps(self) -> int:
        return int(round((self.train_years + self.val_years + self.test_years)
                         * STEPS_PER_YEAR))


class SyntheticReanalysis:
    """In-memory reanalysis archive with GCM state checkpoints.

    ``fields`` has shape ``(T, H, W, C)`` with C following
    :data:`repro.data.variables.TOY_SET`. Time index ``i`` corresponds to
    GCM step ``spinup + i`` — forcings for sample ``i`` are
    ``forcing_provider(archive.gcm_step(i))``.
    """

    def __init__(self, config: ReanalysisConfig = ReanalysisConfig()):
        self.config = config
        self.grid = LatLonGrid(config.height, config.width)
        self.static = StaticFields.generate(self.grid)
        self.gcm = ToyGCM(self.grid, self.static)
        self.forcing_provider = ForcingProvider(self.grid, self.static)
        self._checkpoints: dict[int, GcmState] = {}
        self._generate()

    # -- generation ----------------------------------------------------------
    def _generate(self) -> None:
        cfg = self.config
        n = cfg.n_steps
        state = self.gcm.initial_state(seed=cfg.seed,
                                       spinup_steps=cfg.spinup_steps)
        shape = (n, self.grid.height, self.grid.width, len(TOY_SET))
        self.fields = np.empty(shape, dtype=np.float32)
        self.fields[0] = self.gcm.diagnostics(state)
        self._checkpoints[0] = state.clone()
        for i in range(1, n):
            self.gcm.step(state)
            self.fields[i] = self.gcm.diagnostics(state)
            if i % CHECKPOINT_EVERY == 0:
                self._checkpoints[i] = state.clone()
        self._final_state = state

    # -- indexing ------------------------------------------------------------
    def gcm_step(self, i: int) -> int:
        """GCM absolute step for archive time index ``i`` (drives forcings
        and the seasonal calendar)."""
        return self.config.spinup_steps + i

    def __len__(self) -> int:
        return self.fields.shape[0]

    @property
    def splits(self) -> dict[str, tuple[int, int]]:
        cfg = self.config
        t0 = int(round(cfg.train_years * STEPS_PER_YEAR))
        v0 = t0 + int(round(cfg.val_years * STEPS_PER_YEAR))
        return {"train": (0, t0), "val": (t0, v0), "test": (v0, len(self))}

    def split_indices(self, split: str) -> np.ndarray:
        lo, hi = self.splits[split]
        # Pairs (i, i+1) must both be inside the split.
        return np.arange(lo, hi - 1)

    # -- training statistics ---------------------------------------------------
    def state_normalizer(self) -> FieldNormalizer:
        lo, hi = self.splits["train"]
        return FieldNormalizer.from_data(self.fields[lo:hi])

    def residual_normalizer(self) -> FieldNormalizer:
        lo, hi = self.splits["train"]
        residuals = np.diff(self.fields[lo:hi], axis=0)
        return FieldNormalizer.from_data(residuals)

    def forcing_normalizer(self) -> FieldNormalizer:
        lo, hi = self.splits["train"]
        sample = np.stack([self.forcing_provider(self.gcm_step(i))
                           for i in range(lo, min(hi, lo + 200))])
        return FieldNormalizer.from_data(sample)

    def daily_climatology(self) -> np.ndarray:
        """Day-of-year mean over training years: ``(365, H, W, C)``."""
        lo, hi = self.splits["train"]
        steps_per_day = 4
        n_days = 365
        clim = np.zeros((n_days,) + self.fields.shape[1:], dtype=np.float64)
        counts = np.zeros(n_days, dtype=np.int64)
        for i in range(lo, hi):
            doy = (self.gcm_step(i) // steps_per_day) % n_days
            clim[doy] += self.fields[i]
            counts[doy] += 1
        seen = counts > 0
        clim[seen] /= counts[seen, None, None, None]
        if not seen.all():
            # Short training splits may not cover the full calendar; fall
            # back to the all-training mean for unseen days.
            fallback = self.fields[lo:hi].mean(axis=0, dtype=np.float64)
            clim[~seen] = fallback
        return clim.astype(np.float32)

    def climatology_at(self, clim: np.ndarray, i: int) -> np.ndarray:
        doy = (self.gcm_step(i) // 4) % 365
        return clim[doy]

    # -- sample access -----------------------------------------------------------
    def training_batch(self, indices: np.ndarray, state_norm: FieldNormalizer,
                       residual_norm: FieldNormalizer,
                       forcing_norm: FieldNormalizer
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardized ``(condition, residual_target, forcings)`` batch."""
        cond = state_norm.normalize(self.fields[indices])
        residual = residual_norm.normalize(
            self.fields[indices + 1] - self.fields[indices])
        forc = np.stack([
            forcing_norm.normalize(self.forcing_provider(self.gcm_step(int(i))))
            for i in indices])
        return cond, residual, forc

    # -- numerical-baseline support -------------------------------------------
    def internal_state_at(self, i: int) -> GcmState:
        """Exact GCM state at archive index ``i`` (the 'analysis').

        Replays from the nearest stored checkpoint — this is the truth state
        an operational system would approximate by data assimilation.  An
        index past the end replays on from the last checkpoint (the numerical
        baseline forecasts from late analysis times); ``i < 0`` raises.
        """
        if i < 0:
            raise IndexError(f"archive index {i}: the analysis exists for "
                             f"0 <= i (archive length {len(self)})")
        base = (i // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
        while base not in self._checkpoints and base > 0:
            base -= CHECKPOINT_EVERY
        state = self._checkpoints[base].clone()
        for _ in range(i - base):
            self.gcm.step(state)
        return state
