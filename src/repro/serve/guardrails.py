"""Physical forecast guardrails: the last line of SDC defense.

ABFT (:mod:`repro.kernels.abft`) defends the GEMMs and the guarded
trainer defends the state, but serving is the boundary where *any*
undetected upstream flip would reach a user.  The guardrail is physical:
every served trajectory must be finite and every variable must stay
inside bounds derived from the archive statistics the model was trained
on (``mean ± z_max·std`` per channel, from a
:class:`repro.data.FieldNormalizer`).  A 500 hPa geopotential of
``1e30`` or a NaN surface temperature is not a forecast — it is
corruption, whatever produced it.

:class:`ForecastValidator` is pure and read-only and
:func:`book_quarantine` books one detection; the enforcement policy
(quarantine the response, re-run the batch on a *different* worker, fail
the request if still absurd) lives in
:class:`repro.serve.ForecastService`.  ``z_max`` defaults to 8 standard
deviations: far outside any state the training distribution contains,
far inside what a flipped exponent bit produces — so the guard never
fires on a legitimate (even badly wrong) forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span

__all__ = ["BoundViolation", "ForecastValidator", "book_quarantine"]

#: :meth:`ForecastValidator.from_normalizer`'s bound, in archive standard
#: deviations either side of the mean.
Z_MAX = 8.0


@dataclass(frozen=True)
class BoundViolation:
    """One violated per-channel constraint in one forecast."""

    channel: int
    name: str
    kind: str        # "nonfinite" | "below" | "above"
    count: int       # offending elements in the trajectory
    worst: float     # most extreme offending value (NaN for nonfinite)

    def render(self) -> str:
        return (f"{self.name}[{self.channel}] {self.kind} x{self.count} "
                f"(worst {self.worst!r})")


class ForecastValidator:
    """Per-variable finiteness + physical-bounds check on ``(..., C)``
    forecasts.

    ``lower`` / ``upper`` are per-channel physical bounds; violation
    reports label channel ``i`` as ``ch<i>``.
    """

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=np.float64).reshape(-1)
        self.upper = np.asarray(upper, dtype=np.float64).reshape(-1)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper must have one bound per channel")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound above upper bound")
        self.names = [f"ch{i}" for i in range(self.lower.size)]

    @classmethod
    def from_normalizer(cls, norm) -> "ForecastValidator":
        """Bounds from archive statistics: ``mean ± Z_MAX·std`` per
        channel (``norm`` is a :class:`repro.data.FieldNormalizer`)."""
        mean = np.asarray(norm.mean, dtype=np.float64).reshape(-1)
        std = np.asarray(norm.std, dtype=np.float64).reshape(-1)
        return cls(mean - Z_MAX * std, mean + Z_MAX * std)

    @property
    def channels(self) -> int:
        return self.lower.size

    def validate(self, forecast: np.ndarray) -> list[BoundViolation]:
        """All violated constraints of one physical ``(..., C)`` forecast
        (empty list = clean).  Read-only; NaN/Inf never escape as
        false-negatives (comparisons with NaN are handled explicitly)."""
        if forecast.shape[-1] != self.channels:
            raise ValueError(f"forecast has {forecast.shape[-1]} channels, "
                             f"validator expects {self.channels}")
        flat = forecast.reshape(-1, self.channels)
        violations: list[BoundViolation] = []
        finite = np.isfinite(flat)
        with np.errstate(invalid="ignore"):
            # Nonfinite elements report once, as "nonfinite" — not again
            # as bound violations (±inf would otherwise double-count).
            below = (flat < self.lower) & finite
            above = (flat > self.upper) & finite
        for c in range(self.channels):
            col = flat[:, c]
            n_nonfinite = int((~finite[:, c]).sum())
            if n_nonfinite:
                violations.append(BoundViolation(
                    c, self.names[c], "nonfinite", n_nonfinite, float("nan")))
            n_below = int(below[:, c].sum())
            if n_below:
                violations.append(BoundViolation(
                    c, self.names[c], "below", n_below,
                    float(col[below[:, c]].min())))
            n_above = int(above[:, c].sum())
            if n_above:
                violations.append(BoundViolation(
                    c, self.names[c], "above", n_above,
                    float(col[above[:, c]].max())))
        return violations


def book_quarantine(tier: str, worker_rank: int,
                    violations: list[BoundViolation]) -> None:
    """Book one detection of the ``sdc_forecast`` fault class."""
    _count("serve.forecasts_quarantined",
           "forecasts failing physical guardrails", 1, tier=tier)
    _record_event("serve.forecast_quarantined", subsystem="serve",
                  severity="critical", tier=tier, worker=worker_rank,
                  violations="; ".join(v.render() for v in violations[:4]))
    with _span("resilience.forecast_sdc", category="resilience",
               tier=tier, worker=worker_rank):
        pass
