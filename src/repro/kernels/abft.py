"""ABFT (algorithm-based fault tolerance) checksums for hot GEMMs.

For ``C = A·B`` the row sums of the output must satisfy
``C·1 = A·(B·1)`` — a skinny GEMV costing ``~1/N`` of the original
product.  :func:`guard_gemm` verifies that identity on the *actual
operands* of an already-computed product: a bit flipped in any output
element (or in the accumulator that produced it) shifts exactly one row
sum and is detected and localized to its row, raising
:class:`~repro.resilience.ComputeCorruption`.  This is the classical
Huang–Abraham checksum scheme, the standard SDC defense for exascale
GEMMs.

Numerical contract:

* **bit-exact when clean** — verification only *reads* ``C``; the
  guarded kernels return the identical array, so enabling ABFT cannot
  perturb training numerics;
* **no false positives** — the checksum residual of a clean product is
  rounding noise, bounded by ``eps·(K+N)·Σ|A||B|`` per row; the
  tolerance scales with a Cauchy–Schwarz relaxation of that magnitude
  bound (``‖A_row‖·sqrt(N)·‖B‖_F``, computed from the operands, so
  catastrophic cancellation in ``C`` cannot shrink it);
* **detection floor** — corruptions below the rounding-noise floor are
  numerically indistinguishable from a different summation order and are
  out of the threat model; the injector's
  :meth:`~repro.resilience.FaultInjector.corrupt_compute` flips the high
  exponent bit precisely so injected faults always clear the floor.

The guard is off by default and costs
one module-global check per GEMM; :func:`abft_guard` arms it for a scope.
Fault *injection* (via :func:`repro.resilience.inject_compute`) is
consulted independently of the guard, so an undefended run can
demonstrate silent corruption.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..obs.profile import record_event as _record_event
from ..obs.profile import span as _span
from ..resilience.faults import (ComputeCorruption, compute_injector,
                                 count_sdc_detected)

__all__ = ["abft_guard", "guard_gemm", "guards_live"]

#: Safety factor on the per-row rounding-noise bound.  The clean
#: residual is ``<= ~(K+N)·eps·Σ|A||B|``; 8x keeps seeds of golden tests
#: comfortably clear while an exponent-bit flip overshoots by >1e3x.
_SAFETY = 8.0

_ENABLED = False


@contextmanager
def abft_guard(enabled: bool = True):
    """Arm (or explicitly disarm) ABFT verification for the block."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = enabled
    try:
        yield
    finally:
        _ENABLED = previous


def guards_live() -> bool:
    """Whether :func:`guard_gemm` does anything: ABFT is armed or a compute
    fault injector is installed.  Both address GEMMs by their order in the
    step, so a caller that would reorder guarded GEMMs keeps them serial."""
    return _ENABLED or compute_injector() is not None


def _record_detected(label: str, detail: str) -> None:
    count_sdc_detected("gemm")
    _record_event("compute.sdc_detected", subsystem="kernels",
                  severity="critical", site="gemm", label=label,
                  detail=detail)
    with _span("resilience.sdc", category="resilience", site="gemm",
               label=label):
        pass


def _verify_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 label: str) -> None:
    """Row-checksum verification of ``c = a @ b`` (read-only).

    Checks ``C·1 = A·(B·1)``: both reductions run along the contiguous
    last axis and the reference product is a skinny ``(M,K)@(K,1)`` GEMV,
    which is what keeps the clean-path overhead inside the perf budget
    (bench_sdc.py).  A flipped output element shifts exactly one row sum.
    """
    # b is read twice below; the attention kernels multiply strided views
    # of the packed QKV projection, cheaper copied once than re-walked
    # (a contiguous b passes through).
    b = np.ascontiguousarray(b)
    with np.errstate(invalid="ignore", over="ignore"):
        # Both checksums reduce via batched GEMV against a ones vector —
        # BLAS beats np.sum by ~10x on small batched operands, and any
        # summation-order difference is rounding noise the tolerance
        # already covers.
        ones = np.ones((b.shape[-1], 1), dtype=c.dtype)
        row_obs = np.matmul(c, ones)[..., 0]
        row_ref = np.matmul(a, np.matmul(b, ones))[..., 0]
        # Magnitude bound per row, immune to cancellation in c (so the
        # tolerance can't collapse under it): sum_{k,n} |a_mk||b_kn| <=
        # ||A_m,:||_2·sqrt(N)·||B||_F by Cauchy–Schwarz.  The squared
        # norms come from einsum reductions — one pass over each operand,
        # no |A|/|B| temporaries, no second full GEMM — and only their
        # (tiny) product is promoted to float64, so the hot path stays
        # allocation-light (the per-step budget bench_sdc.py gates).
        a_row_sq = np.einsum("...mk,...mk->...m", a, a)
        b_fro_sq = np.einsum("...kn,...kn->...", b, b)[..., None]
        k = a.shape[-1]
        n = b.shape[-1]
        eps = float(np.finfo(c.dtype).eps) if np.issubdtype(
            c.dtype, np.floating) else float(np.finfo(np.float32).eps)
        tol = (_SAFETY * eps * (k + n) * np.sqrt(n)) \
            * np.sqrt(np.multiply(a_row_sq, b_fro_sq, dtype=np.float64)) \
            + np.finfo(np.float64).tiny
        err = np.abs(np.subtract(row_ref, row_obs, dtype=np.float64))
        ok = err <= tol  # NaN/Inf residuals compare False => detected
    if ok.all():
        return
    bad = np.argwhere(~ok)
    rows = sorted({int(idx[-1]) for idx in bad})
    detail = (f"{label}: row checksum mismatch at "
              f"row(s) {rows[:4]} ({bad.shape[0]} of {ok.size} checks)")
    _record_detected(label, detail)
    raise ComputeCorruption("gemm", detail)


def guard_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray,
               label: str = "gemm") -> np.ndarray:
    """Fault-injection + ABFT hook around an already-computed ``c = a@b``.

    Consults the active compute injector (corrupting ``c`` in place when
    a fault fires — modeling the hardware flipping an output bit), then
    verifies the column checksums when ABFT is armed.  Returns ``c``
    unchanged on the clean path; the double-global check keeps the
    unguarded hot path at two attribute loads.
    """
    inj = compute_injector()
    if inj is not None and inj.compute_fault("gemm"):
        inj.corrupt_compute(c)
    if _ENABLED:
        _verify_gemm(a, b, c, label)
    return c
