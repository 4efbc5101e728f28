"""Bounded LRU caches for execution plans.

The Swin hot paths (window partition/merge, cyclic shift, RoPE) are pure
functions of a handful of small integers — shape, window, shift, head_dim.
Recomputing their index maps and rotation tables on every forward is pure
waste, but an unbounded memo dict is a slow leak in a long-lived serving
process that sees many shapes.  :class:`LRUCache` is the middle ground:
plans are built once per key, reused until evicted, and the total number of
retained plans is bounded.

Every cache self-registers in a module-level registry so
:func:`plan_cache_stats` can expose hit/miss/eviction counts to benchmarks
and :func:`clear_plan_caches` can reset the world between tests.

A lookup runs under the cache's lock: threads a caller starts may look
plans up at once, and the counters stay exact (hits + misses =
lookups).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["LRUCache", "plan_cache_stats", "clear_plan_caches"]

V = TypeVar("V")

#: name -> cache; populated by LRUCache.__init__.
_REGISTRY: dict[str, "LRUCache"] = {}


class LRUCache:
    """A small bounded least-recently-used cache with hit/miss counters.

    Parameters
    ----------
    name:
        Registry key; also used in :func:`plan_cache_stats` output.  A second
        cache created under an existing name replaces the registry entry
        (useful in tests) but does not affect the first cache's contents.
    maxsize:
        Maximum number of retained entries; least-recently-used entries are
        evicted first.  Must be positive.
    """

    def __init__(self, name: str, maxsize: int = 64):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_build(self, key: Hashable, builder: Callable[[], V]) -> V:
        """Return the cached value for ``key``, building (and caching) it on
        a miss.  Builds happen at most once per resident key."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                value = builder()
                self._entries[key] = value
                if len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                return value
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {"size": len(self._entries), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


def plan_cache_stats() -> dict[str, dict[str, int]]:
    """Per-cache ``{size, maxsize, hits, misses, evictions}`` counters."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}


def clear_plan_caches() -> None:
    """Drop every cached plan and zero the counters."""
    for cache in _REGISTRY.values():
        cache.clear()
        cache.reset_stats()
