"""Heap helpers: a bounded max-heap for top-k tracking and a tiny min-heap.

The bounded max-heap keeps the *k smallest* items seen so far, which is the
access pattern of every kNN routine in this library: push candidate
(distance, id) pairs, pop nothing, read the sorted survivors at the end.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, List, Tuple

Item = Tuple[float, Any]


class BoundedMaxHeap:
    """Keep the ``k`` smallest ``(key, value)`` pairs pushed into it.

    Internally a max-heap of size ≤ k implemented by negating keys on a
    ``heapq`` min-heap.  ``bound`` is the current k-th smallest key (or
    ``inf`` until the heap is full), which callers use to prune work.
    Ties at the k-th key keep the incumbent.
    """

    __slots__ = ("k", "_heap", "_counter")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._heap: List[Tuple[float, int, Any]] = []
        # The middle tuple element breaks heap-comparison ties, so values
        # never get compared (they may be un-orderable).
        self._counter = 0

    def push(self, key: float, value: Any) -> bool:
        """Offer an item; returns True if it was retained."""
        self._counter += 1
        entry = (-key, self._counter, value)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if -self._heap[0][0] > key:  # strictly smaller key
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def extend(self, items: Iterable[Item]) -> None:
        for key, value in items:
            self.push(key, value)

    @property
    def bound(self) -> float:
        """Current admission threshold: the largest retained key, or +inf."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def items_sorted(self) -> List[Item]:
        """Retained items as ``(key, value)`` sorted by ascending key."""
        return [(-negkey, value) for negkey, _, value in sorted(self._heap, reverse=True)]


class MinHeap:
    """A thin typed wrapper over ``heapq`` used for best-first traversals."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = 0

    def push(self, key: float, value: Any) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (key, self._counter, value))

    def pop(self) -> Item:
        key, _, value = heapq.heappop(self._heap)
        return key, value

    def peek_key(self) -> float:
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Item]:
        """Drain the heap in key order (consumes it)."""
        while self._heap:
            yield self.pop()
