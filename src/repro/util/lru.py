"""A bounded LRU mapping with hit statistics.

One cache type serves every memoisation point in the system: the
admission service's per-instance analysis cache
(:class:`repro.service.state.ServiceState`), the process-wide
schedulability cache of ``evaluate_task_set`` callers such as
``compare``, ``batch-analyze`` and the service
(:data:`repro.analysis.schedulability.ANALYSIS_CACHE`; campaign and
trace shards never touch it), and the hyperperiod-cycle cache of the
PD² fast path (:mod:`repro.sim.cache`).  All of them key results by
canonical hashes
(:func:`repro.analysis.schedulability.task_set_cache_key` and friends) so
identical questions are answered by O(1) dict lookups.

Caches at every layer store only *pure* results (minimum processor
counts, inflated utilizations, per-cycle schedule statistics).  Anything
that depends on mutable state — e.g. the service's live Eq. (2)
admission — is never cached.

Thread safety: every mutating operation takes an internal
``threading.RLock``.  ``ANALYSIS_CACHE`` is written from the main
thread (``compare``, serial ``batch_analyze`` calls), from the
``ServerThread`` event loop (service ``analyze`` requests) and from the
loop's default-executor thread (the service's ``batch-analyze``), and
an ``OrderedDict`` mutated from two threads can corrupt its recency
list; the uncontended lock costs tens of nanoseconds against a lookup
that saves a full schedulability analysis.
staticcheck's R007 (domain confinement) recognises this pattern — a
class whose mutating methods all run under ``self._lock`` — and treats
writes through it as synchronised.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction and hit stats.

    Safe for concurrent use from multiple threads: each operation is
    atomic under an internal reentrant lock.  (Compound check-then-act
    sequences — ``get`` miss followed by ``put`` — are *not* atomic, but
    every cached value here is a pure function of its key, so the worst
    case is two threads computing the same result once each.)
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` (refreshing its recency), or
        ``None``.  ``None`` is never a legal cached value."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        if value is None:
            raise ValueError("None is reserved for cache misses")
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def info(self) -> Dict[str, Any]:
        """Occupancy and hit-rate statistics for the ``stats`` verb."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else None,
            }

    def __repr__(self) -> str:
        return (f"LRUCache({len(self._data)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses})")
