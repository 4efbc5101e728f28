"""Machine-speed gauge: times are reported at a reference machine speed.

Why it exists.  On the 2-core sandbox the *machine* drifts: the same
repetition of the same code takes 0.13 s in one minute and 0.21 s in
another, and wanders +-12 % at a 5-10 s timescale (steal time is ~1 %, so
it is the host: SMT-sibling and cache contention, frequency).  Medians
inside a 15 s run cannot remove a drift that is slower than the run, and
ten runs then spread by 20-35 % — wider than any bound the contract
allows.  So every timed segment (a repetition, or a piece of one) is
bracketed by a short, fixed calibration slice that uses nothing from
``repro``, and its wall time is divided by how slow the machine was *at
that moment* relative to a reference machine that runs the slice in
:data:`REFERENCE_S`.  Measured
here: ten runs' spread of one SWiPe step fell from 5.5 % to 2.2 % on a calm
stretch, and regime shifts of 60 % cancel.

What it is not.  The slice is frozen benchmark code, so a change to
``repro`` cannot move it: a real speed-up or regression moves the reported
number by exactly its own factor.  Raw wall-clock values are printed next
to the normalised ones and stored in the result file.

The slice mixes the two regimes the workloads live in — interpreter-bound
small-array bookkeeping (the ``Tensor`` wrapper layer at 1-4 rows) and
medium NumPy kernels (matmul / exp / reductions at model sizes) — in
roughly the 1:2 proportion that tracked the workloads best.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

__all__ = ["REFERENCE_S", "SpeedGauge", "Timed", "ReferenceClock"]

#: Wall seconds of one slice on the reference machine (this sandbox in its
#: fast state).  Only ratios between runs matter; the constant pins the
#: scale so that normalised and raw times agree on a quiet box.
REFERENCE_S = 0.0030


class _Box:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class SpeedGauge:
    """``read()`` returns the machine's current slowness factor: 1.0 on the
    reference machine, 1.3 when everything takes 30 % longer."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((512, 32)).astype(np.float32)
        self._w = rng.standard_normal((32, 96)).astype(np.float32)
        self._out = np.empty((512, 96), np.float32)
        self._s1 = rng.standard_normal(64).astype(np.float32)
        self._s2 = rng.standard_normal(64).astype(np.float32)
        self._s3 = np.empty(64, np.float32)

    def slice_s(self) -> float:
        """Wall seconds of one calibration slice."""
        a, w, out = self._a, self._w, self._out
        s1, s2, s3 = self._s1, self._s2, self._s3
        t0 = time.perf_counter()
        for _ in range(300):                 # interpreter-bound share
            b, c = _Box(s1), _Box(s2)
            np.add(b.data, c.data, out=s3)
            _Box(s3.reshape(8, 8)).data.sum(axis=-1)
        for _ in range(12):                  # NumPy-kernel share
            np.matmul(a, w, out=out)
            np.exp(out, out=out)
            out.sum(axis=-1)
            out.max(axis=-1)
        return time.perf_counter() - t0

    def read(self) -> float:
        """Median of five slices over the reference time."""
        return sorted(self.slice_s() for _ in range(5))[2] / REFERENCE_S


class Timed(NamedTuple):
    """Result of one timed segment: the callable's return value, its wall
    seconds at reference speed, and the machine's slowness factor over it
    (raw wall = ``seconds * speed``)."""

    value: object
    seconds: float
    speed: float


class ReferenceClock:
    """Times callables at reference machine speed.

    ``timed(fn)`` runs ``fn()`` between two gauge readings (the reading
    after one segment is the reading before the next) and divides its wall
    time by their mean.  With a ``tracer`` attached, the segment runs inside
    a ``bench.segment`` root span, so the spans below it add up to exactly
    the wall that was timed.  ``log`` keeps ``(raw seconds, speed, traced)``
    per segment for the result file and the ledger.
    """

    def __init__(self, gauge: SpeedGauge | None = None):
        self.gauge = gauge if gauge is not None else SpeedGauge()
        self.tracer = None
        self.log: list[tuple[float, float, bool]] = []
        self._reading = None

    def timed(self, fn) -> Timed:
        if self._reading is None:
            self._reading = self.gauge.read()
        tracer = self.tracer
        t0 = time.perf_counter()
        if tracer is None:
            value = fn()
        else:
            with tracer.span("bench.segment", "bench"):
                value = fn()
        raw = time.perf_counter() - t0
        before, self._reading = self._reading, self.gauge.read()
        speed = 0.5 * (before + self._reading)
        self.log.append((raw, speed, tracer is not None))
        return Timed(value, raw / speed, speed)
