"""Exact-repeat query-result cache for the serving front-end.

Hot items get looked up again and again, and a verified PM-LSH answer
costs orders of magnitude more than a dictionary probe.  The cache keys
each request on

* the spec's :attr:`~repro.queries.QuerySpec.merge_key` (a ``Knn(10)``
  answer must never serve a ``Knn(5)`` or a ``Range(2.0)`` request), and
* the query's float64 **bytes** — no projection, no quantization — so a
  hit is only ever a byte-identical repeat, and the answer it returns is
  exactly what a direct ``index.run()`` of that query returns.

Entries are stored as read-only copies: the first caller keeps its own
mutable arrays, and a caller that writes into a cached answer gets a
``ValueError`` instead of poisoning the next hit.

The cache keeps no write epoch of its own.  The server owns the one
epoch: every write bumps it and calls :meth:`QueryCache.invalidate`, and
the server drops any answer whose batch was dispatched before the bump
instead of putting it here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import QueryResult
from repro.queries import QuerySpec


def _frozen(array: np.ndarray) -> np.ndarray:
    copy = np.array(array)
    copy.flags.writeable = False
    return copy


class QueryCache:
    """LRU of per-request answers (:class:`QueryResult`) keyed on the query's bytes.

    Parameters
    ----------
    capacity:
        Maximum retained entries; the least recently used entry is evicted
        first.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple, QueryResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._c_evictions = None
        self._c_invalidations = None

    def __len__(self) -> int:
        return len(self._entries)

    def bind_metrics(self, registry, labels=None) -> None:
        """Publish eviction/invalidation counters into *registry*.

        Hit/miss totals stay plain attributes (the server exports them as
        gauges); the counters here are the events only the cache sees.
        """
        labels = labels or {}
        self._c_evictions = registry.counter(
            "cache_evictions", "Entries evicted by LRU capacity pressure", labels
        )
        self._c_invalidations = registry.counter(
            "cache_invalidations", "Epoch bumps that dropped every entry", labels
        )

    @staticmethod
    def key_for(query: np.ndarray, spec: QuerySpec) -> Tuple:
        """The ``(merge key, float64 query bytes)`` key of one request."""
        return (spec.merge_key, np.asarray(query, dtype=np.float64).tobytes())

    def get(self, query: np.ndarray, spec: QuerySpec) -> Optional[QueryResult]:
        """The cached answer for this request, or ``None`` (counted as hit/miss)."""
        key = self.key_for(query, spec)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, query: np.ndarray, spec: QuerySpec, result: QueryResult) -> None:
        """Store a read-only copy of *result*, evicting the LRU entry if full."""
        key = self.key_for(query, spec)
        self._entries[key] = QueryResult(
            ids=_frozen(result.ids),
            distances=_frozen(result.distances),
            stats=dict(result.stats),
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            if self._c_evictions is not None:
                self._c_evictions.inc()

    def invalidate(self) -> None:
        """Drop every entry (the server calls this on every write)."""
        self._entries.clear()
        if self._c_invalidations is not None:
            self._c_invalidations.inc()
