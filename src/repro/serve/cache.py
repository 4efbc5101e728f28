"""Content-addressed forecast cache with LRU eviction and byte accounting.

An autoregressive member trajectory is fully determined by *content*:
the model weights, the initial state, the member's noise seed, the solver
configuration, and the forcing calendar position.  Each cache entry is
one member-state at one lead, keyed by the digest of exactly that tuple —
so a repeated query is a pure lookup, a *longer* query resumes from the
longest cached prefix (the entry carries the member generator's state
after that lead), and retraining the model (new weights digest) silently
invalidates every stale entry without any flush logic.

This is the serving-tier analogue of the *Exascale Climate Emulators*
observation: at scale you cache/emulate forecasts, you don't recompute
them.  Hits, misses, evictions, and resident bytes are booked through
:mod:`repro.obs` (``serve.cache`` counters, ``serve.cache_bytes`` gauge).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..resilience.checksum import content_digest, state_digest

__all__ = ["array_digest", "weights_digest", "solver_digest",
           "forecast_key", "CacheEntry", "ForecastCache"]


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes (content address)."""
    return content_digest(array)


def weights_digest(model) -> str:
    """SHA-256 over a model's full ``state_dict`` (sorted by name).

    Delegates to :func:`repro.resilience.checksum.state_digest` so the
    registry's weight-blob digests and the serving cache's version keys
    are the *same* hash over the same bytes.
    """
    return state_digest(model.state_dict())


def solver_digest(solver_config) -> str:
    """Stable digest of a sampler configuration.

    ``None`` addresses the one-step consistency jump (the ``fast`` tier
    has no ODE schedule to parameterize).
    """
    if solver_config is None:
        text = "consistency-one-step"
    else:
        # ``|t_end=None`` is in the text of every stored key: it stays.
        text = (f"dpm2s|n_steps={solver_config.n_steps}"
                f"|churn={solver_config.churn!r}|t_end=None")
    return hashlib.sha256(text.encode()).hexdigest()


def forecast_key(weights: str, init: str, member_seed: int, solver: str,
                 start_index: int, lead: int) -> str:
    """Content address of one member-state at one lead."""
    text = f"{weights}|{init}|{member_seed}|{solver}|{start_index}|{lead}"
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(eq=False)
class CacheEntry:
    """One member-state at one lead, plus the member generator's state
    *after* producing it (what prefix-resumption needs)."""

    key: str
    state: np.ndarray
    rng_state: dict
    nbytes: int


class ForecastCache:
    """LRU cache of :class:`CacheEntry` under a byte budget.

    ``get``/``put`` are O(1); eviction walks the LRU tail until the
    resident set fits.  Entries larger than the whole budget are refused
    (counted, not stored).  A writeable state is copied on the way in, so
    a caller mutating its arrays cannot corrupt cached content; a
    read-only one is adopted as it is (its owner has marked it so: no
    copy, and a write to the cached state raises).
    """

    def __init__(self, max_bytes: int):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _book(self, event: str) -> None:
        _count("serve.cache", "forecast-cache lookups and evictions", 1,
               event=event)
        _gauge("serve.cache_bytes", "resident forecast-cache bytes",
               self.current_bytes)
        _gauge("serve.cache_occupancy_frac", "resident bytes / byte budget",
               self.current_bytes / self.max_bytes)

    def get(self, key: str) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._book("miss")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._book("hit")
        return entry

    def put(self, key: str, state: np.ndarray, rng_state: dict) -> bool:
        """Insert (or refresh) an entry; returns False if it cannot fit."""
        nbytes = int(state.nbytes)
        if nbytes > self.max_bytes:
            self.oversize += 1
            self._book("oversize")
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old.nbytes
        while self.current_bytes + nbytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.current_bytes -= evicted.nbytes
            self.evictions += 1
            self._book("evict")
        if state.flags.writeable:
            state = np.array(state)
        self._entries[key] = CacheEntry(key=key, state=state,
                                        rng_state=rng_state, nbytes=nbytes)
        self.current_bytes += nbytes
        self._book("put")
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "evictions": self.evictions,
            "oversize": self.oversize,
        }
