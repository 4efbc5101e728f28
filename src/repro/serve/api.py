"""Typed request/response surface of the forecast-serving tier.

A :class:`ForecastRequest` names *what* to forecast (initial state, lead
steps, ensemble size, variables) and *how* (quality tier, seed); the
service answers with a :class:`ForecastResponse` carrying the trajectory
plus per-request accounting (latency, queue wait, cache hits, stacked
forwards).  Admission failures are typed — :class:`Rejected` for
backpressure (queue caps, unknown variables, unavailable tiers) and
:class:`Timeout` for per-tier deadline misses — so callers can distinguish
"retry later" from "never".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TIERS", "ForecastRequest", "ForecastResponse",
           "ServeError", "Rejected", "Timeout"]

#: Quality tiers, cheapest first (see :mod:`repro.serve.samplers`).
TIERS = ("fast", "standard", "high")


class ServeError(RuntimeError):
    """Base class for typed serving failures."""


class Rejected(ServeError):
    """Admission control refused the request (backpressure or bad input).

    ``reason`` is machine-readable: ``queue_full`` / ``tier_queue_full`` /
    ``tier_unavailable`` / ``bad_shape`` / ``unknown_variable``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"request rejected ({reason})"
                         + (f": {detail}" if detail else ""))


class Timeout(ServeError):
    """The request outlived its tier's deadline while queued."""

    def __init__(self, waited_s: float, deadline_s: float):
        self.waited_s = waited_s
        self.deadline_s = deadline_s
        super().__init__(f"request timed out after {waited_s:.3f}s "
                         f"(deadline {deadline_s:.3f}s)")


@dataclass(frozen=True, eq=False)
class ForecastRequest:
    """One forecast query.

    ``init_state`` is a physical ``(H, W, C)`` field; ``start_index``
    positions it on the forcing calendar.  ``seed`` fixes the ensemble
    noise (member ``m`` streams from ``default_rng(member_seed(seed, m))``,
    :func:`repro.diffusion.member_seed` — the same convention as
    :meth:`ResidualForecaster.ensemble_rollout`, which is what makes
    served forecasts bit-reproducible and cacheable).
    ``variables`` optionally restricts the *returned* channels; compute
    and cache always cover the full state (the autoregression needs it).
    """

    init_state: np.ndarray
    n_steps: int
    n_members: int = 1
    tier: str = "standard"
    seed: int = 0
    start_index: int = 0
    variables: tuple[str, ...] | None = None
    arrival_s: float = 0.0
    request_id: str = ""

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; one of {TIERS}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")
        if self.init_state.ndim != 3:
            raise ValueError("init_state must be (H, W, C)")


@dataclass(eq=False)
class ForecastResponse:
    """Outcome of one request.

    ``status`` is ``completed`` / ``rejected`` / ``timeout`` / ``failed``;
    ``forecast`` is ``(n_members, n_steps + 1, H, W, C')`` (``C'`` the
    requested variable subset) and ``None`` unless completed.
    ``batch_forwards`` / ``batch_members`` describe the micro-batch that
    served the request (shared across coalesced requests).
    ``quarantines`` counts how many times a physical guardrail
    quarantined this request's forecast before it was served (a served
    response with ``quarantines > 0`` was healed by a re-run on a
    different worker).  ``version`` names the model version that served
    the request (empty for rejections, which never reach a model).
    """

    request: ForecastRequest
    status: str
    forecast: np.ndarray | None = None
    error: str = ""
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    worker: int = -1
    batch_forwards: int = 0
    batch_members: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    quarantines: int = 0
    version: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "completed"
