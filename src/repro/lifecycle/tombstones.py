"""Tombstone bookkeeping: which global ids of an index are dead.

Deletes in this library are *logical*: :meth:`repro.ANNIndex.delete`
marks ids in a :class:`TombstoneSet` and every query path drops dead ids
where it gathers candidates — before any verification, candidate budget,
stopping test or top-k / range cut — so results match an index that
never held those points.  The physical reclaim happens at
compaction (:mod:`repro.lifecycle.compaction`), which re-makes the index
over the live rows and resets the set.

The set is kept as a sorted, unique ``int64`` array: membership tests
over candidate id arrays are one vectorised ``np.isin`` per query round,
and the array serialises directly into ``.npz`` snapshots.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np


class TombstoneSet:
    """Sorted set of dead global ids with vectorised membership tests."""

    __slots__ = ("_ids",)

    def __init__(self, ids: Optional[np.ndarray] = None) -> None:
        self._ids = (
            np.unique(np.asarray(ids, dtype=np.int64))
            if ids is not None
            else np.empty(0, dtype=np.int64)
        )

    def __len__(self) -> int:
        return int(self._ids.size)

    def __bool__(self) -> bool:
        return self._ids.size > 0

    def __contains__(self, gid: int) -> bool:
        i = int(np.searchsorted(self._ids, int(gid)))
        return i < self._ids.size and int(self._ids[i]) == int(gid)

    def __repr__(self) -> str:
        return f"TombstoneSet({self._ids.size} dead)"

    def ids(self) -> np.ndarray:
        """The dead ids, sorted ascending (a read-only view)."""
        return self._ids

    def as_set(self) -> set:
        """The dead ids as a Python set (for recursive tree ``exclude``)."""
        return set(self._ids.tolist())

    def mark(self, ids: np.ndarray | Iterable[int]) -> None:
        """Add *ids* (already validated by the caller) to the set."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            self._ids = np.union1d(self._ids, ids)

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask over *ids*: True where the id is dead."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._ids.size == 0:
            return np.zeros(ids.shape, dtype=bool)
        return np.isin(ids, self._ids)

    def alive_mask(self, size: int) -> np.ndarray:
        """``(size,)`` boolean mask: True for live ids in ``[0, size)``."""
        mask = np.ones(int(size), dtype=bool)
        if self._ids.size:
            mask[self._ids[self._ids < size]] = False
        return mask

    def live_ids(self, size: int) -> np.ndarray:
        """Sorted live ids in ``[0, size)``."""
        return np.flatnonzero(self.alive_mask(size))

    def copy(self) -> "TombstoneSet":
        return TombstoneSet(self._ids.copy())
