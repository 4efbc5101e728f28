"""Retry bounds for transient communication faults.

Transient faults (dropped or corrupted messages) are healed by
re-transmission with exponential backoff, at most :data:`MAX_RETRIES`
times per message.  The waits are *virtual* — no wall-clock sleeping —
but metered (``comm.backoff_s``), so chaos runs report the latency a real
fabric would have paid.  The serve pool's worker failovers per batch
share the same bound.
"""

from __future__ import annotations

__all__ = ["MAX_RETRIES", "backoff_s"]

MAX_RETRIES = 3
BASE_BACKOFF_S = 0.004
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 1.0


def backoff_s(attempt: int) -> float:
    """Simulated wait before retry ``attempt`` (1-based):
    ``BASE_BACKOFF_S · BACKOFF_FACTOR**(attempt-1)``, capped."""
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    return min(BASE_BACKOFF_S * BACKOFF_FACTOR ** (attempt - 1),
               MAX_BACKOFF_S)
