"""Compaction: physically reclaim tombstoned rows, renumbering the survivors.

Tombstone deletes (:mod:`repro.lifecycle.tombstones`) are logical, so dead
rows keep occupying memory, and every query still pays to skip them where
it gathers candidates.  Compaction re-makes the index over exactly the live rows,
renumbers ids densely in their old order, and resets the tombstone set
and the growth baseline (``fitted_n``).  How the index is re-made is the
backend's :meth:`~repro.ANNIndex._compact` hook.  The default re-fits,
which also re-derives n-dependent parameters solved at fit time (QALSH's
m and α, for example).  PM-LSH solves nothing from n at fit time that a
query does not re-evaluate, so its hook keeps the hash draw, the pivots
and the F(x) sample, filters its arrays and drops the dead slots from
the flat tree without a rebuild.  Its answers stay the same, under the
new ids.

Two entry points, one hook:

* :meth:`repro.ANNIndex.compact` — in place.
* :func:`compact_index` — into a **fresh object**, leaving the original
  untouched; this is what :meth:`repro.serving.AsyncSearchServer.compact`
  runs on a background thread so the old index keeps answering queries
  until the swap.  A backend with the snapshot protocol compacts an
  independent copy of itself (:func:`~repro.persistence.restore_state`
  over :func:`~repro.persistence.export_state`, sharing the arrays
  read-only), so both entry points build the same index.  Any other
  backend re-fits a clone made from the same constructor parameters.

:class:`CompactionPolicy` decides *when*: tombstone-ratio and
growth-ratio thresholds, evaluated against any fitted index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class CompactionResult:
    """What one compaction did.

    ``id_map`` maps every pre-compaction global id to its post-compaction
    id (``-1`` for deleted rows) — callers holding old ids translate them
    through it.  ``epoch`` is the index epoch after the compaction; it is
    strictly greater than any epoch the old ids were valid under.
    """

    id_map: np.ndarray
    removed: int
    before_ntotal: int
    after_ntotal: int
    epoch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "id_map", np.asarray(self.id_map, dtype=np.int64))


@dataclass(frozen=True)
class CompactionPolicy:
    """Thresholds that trigger a compaction.

    ``max_tombstone_ratio`` fires when at least that fraction of the
    stored rows is dead (and at least ``min_tombstones`` rows are, so a
    tiny index does not thrash).  ``max_growth_ratio`` fires when
    ``ntotal`` has grown past that multiple of the cardinality at the
    last fit or compaction — the point where n-dependent parameters a
    re-fitting backend solved at fit time have drifted enough to be
    worth one.  PM-LSH solves nothing from n at fit time: m is pinned in
    its params, and the ⌈β·nlive⌉ + k budget and r_min are evaluated
    from ``nlive`` per query, so a growth-triggered compaction only
    drops dead rows and resets the baseline.  ``fit()`` stays the way to
    draw its projections again.  Either threshold can be disabled with
    ``None``.

    >>> from repro.lifecycle import CompactionPolicy
    >>> policy = CompactionPolicy(max_tombstone_ratio=0.3)
    >>> policy.max_tombstone_ratio
    0.3
    """

    max_tombstone_ratio: Optional[float] = 0.25
    max_growth_ratio: Optional[float] = 2.0
    min_tombstones: int = 1

    def __post_init__(self) -> None:
        if self.max_tombstone_ratio is not None and not (
            0.0 < self.max_tombstone_ratio <= 1.0
        ):
            raise ValueError(
                f"max_tombstone_ratio must be in (0, 1], got {self.max_tombstone_ratio}"
            )
        if self.max_growth_ratio is not None and self.max_growth_ratio <= 1.0:
            raise ValueError(
                f"max_growth_ratio must be > 1, got {self.max_growth_ratio}"
            )
        if self.min_tombstones < 1:
            raise ValueError(f"min_tombstones must be >= 1, got {self.min_tombstones}")

    def reason(self, index) -> Optional[str]:
        """Why *index* should compact, or ``None`` if it should not."""
        if index.ntotal == 0:
            return None
        dead = index.num_tombstones
        if (
            self.max_tombstone_ratio is not None
            and dead >= self.min_tombstones
            and dead / index.ntotal >= self.max_tombstone_ratio
        ):
            return (
                f"tombstone ratio {dead / index.ntotal:.3f} >= "
                f"{self.max_tombstone_ratio:.3f}"
            )
        fitted = max(1, index.fitted_n)
        if (
            self.max_growth_ratio is not None
            and index.ntotal / fitted >= self.max_growth_ratio
        ):
            return (
                f"growth ratio {index.ntotal / fitted:.2f} >= "
                f"{self.max_growth_ratio:.2f}"
            )
        return None

    def should_compact(self, index) -> bool:
        """Whether either threshold has been crossed for *index*."""
        return self.reason(index) is not None


def dense_id_map(live_ids: np.ndarray, before_ntotal: int) -> np.ndarray:
    """old id -> new dense id over *live_ids* (sorted); ``-1`` for dead."""
    id_map = np.full(int(before_ntotal), -1, dtype=np.int64)
    id_map[live_ids] = np.arange(live_ids.size, dtype=np.int64)
    return id_map


def count_compaction(registry, removed: int) -> None:
    """Publish one compaction that dropped *removed* rows into *registry*."""
    registry.counter("index_compactions", "Compactions across all indexes").inc()
    registry.counter(
        "index_rows_reclaimed", "Dead rows physically dropped by compaction"
    ).inc(removed)


def compact_index(index) -> Tuple["object", CompactionResult]:
    """Compact *index* into a fresh object; the original is untouched.

    A backend with the snapshot protocol (PM-LSH, exact) is copied by
    :func:`~repro.persistence.restore_state` over
    :func:`~repro.persistence.export_state` — the copy shares the source's
    arrays read-only — and the copy runs :meth:`~repro.ANNIndex.compact`,
    so the result answers exactly as ``index.compact()`` would have left
    *index*.  Any other backend is cloned from the constructor parameters
    captured at construction and fitted over exactly the live rows.
    Either way the fresh epoch is past the source's, so replica shipping
    stays monotonic.  Returns ``(fresh_index, result)``.

    Only reads the source index, so it is safe to run on a background
    thread while the source keeps serving queries — the pattern behind
    :meth:`repro.serving.AsyncSearchServer.compact`.
    """
    from repro.persistence import export_state, restore_state

    if not index.is_built:
        raise RuntimeError(f"{index.name}: cannot compact an unfitted index")
    live = index.live_ids()
    if live.size == 0:
        raise ValueError(f"{index.name}: cannot compact with zero live points")
    try:
        index.require_snapshot_support()
    except NotImplementedError:
        return _refit_clone(index, live)
    fresh = restore_state(*export_state(index))
    # The registry binding is not part of the snapshot; carry it over so
    # the fresh index keeps publishing where the source does.
    if index._metrics is not None:
        fresh.metrics = index._metrics
    return fresh, fresh.compact()


def _refit_clone(index, live: np.ndarray) -> Tuple["object", CompactionResult]:
    """:func:`compact_index` for a backend without the snapshot protocol:
    a clone from the captured constructor parameters, fitted over the
    rows *live*."""
    fresh = type(index)(**(index._init_kwargs or {}))
    if index._metrics is not None:
        fresh.metrics = index._metrics
    fresh.fit(index.data[live])
    fresh._index_epoch = max(fresh.epoch, index.epoch + 1)
    count_compaction(fresh.metrics, index.num_tombstones)
    result = CompactionResult(
        id_map=dense_id_map(live, index.ntotal),
        removed=index.num_tombstones,
        before_ntotal=index.ntotal,
        after_ntotal=fresh.ntotal,
        epoch=fresh.epoch,
    )
    return fresh, result
