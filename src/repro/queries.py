"""The polymorphic query model: specs and result containers.

The unified API's entry point is ``ANNIndex.run(queries, spec)``, where
*spec* describes **what** is being asked — :class:`Knn` for (c, k)-ANN,
:class:`Range` for (r, c)-ball range queries — together with per-call
runtime knobs (candidate budget ``budget``, approximation ratio ``c``)
that override the index's build-time defaults for this call only.
``search(queries, k)`` is sugar for ``run(queries, Knn(k))`` and
``range_search(queries, r)`` for ``run(queries, Range(r))``.

Range answers are *ragged* — each query may match any number of points —
so :class:`RangeResult` stores them CSR-style (faiss's ``range_search``
layout): ``lims`` is a ``(Q + 1,)`` offset array and query i's matches
are ``ids[lims[i]:lims[i+1]]`` / ``distances[lims[i]:lims[i+1]]``,
sorted by ``(distance, id)``.  Closest-pair search returns a
:class:`ClosestPairResult`: the m best ``(i, j)`` pairs over the indexed
set, sorted by ``(distance, i, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np


# ----------------------------------------------------------------------
# query specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """Base class for per-call query descriptions.

    Concrete specs (:class:`Knn`, :class:`Range`) carry the query-type
    parameters plus the shared runtime knobs: ``budget`` caps the number
    of candidates the index may verify for one query, and ``c`` overrides
    the approximation ratio.  Indexes that cannot honour a knob answer
    the plain query and mark ``overrides_ignored`` in the result stats.
    """

    @property
    def has_overrides(self) -> bool:
        """True when any runtime knob deviates from the index default."""
        return False

    @property
    def merge_key(self) -> Tuple:
        """Hashable coalescing key of this spec.

        Two requests may be answered by **one** ``run()`` call exactly when
        their specs share a merge key: the key is the spec type plus every
        field value, so equal keys mean the batched call is semantically
        identical to per-request calls (the batch = loop invariant).  The
        serving layer's micro-batcher groups its queues by this key;
        anything with a differing ``k``, ``r``, ``budget`` or ``c`` stays
        in its own batch.
        """
        return (type(self).__name__,) + tuple(
            getattr(self, f.name) for f in fields(self)
        )

    def can_merge_with(self, other: "QuerySpec") -> bool:
        """Whether one ``run()`` call may answer this spec and *other*."""
        return isinstance(other, QuerySpec) and self.merge_key == other.merge_key


def checked_budget(budget) -> int | None:
    """*budget* as an int, or ``None``; a verification cap below 1 raises.

    The one check behind ``Knn`` and ``Range``.
    """
    if budget is None:
        return None
    if int(budget) < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return int(budget)


@dataclass(frozen=True)
class Knn(QuerySpec):
    """A (c, k)-ANN query: the k approximately-nearest neighbours.

    Parameters
    ----------
    k:
        Number of neighbours per query.
    budget:
        Optional per-query candidate-verification cap, overriding the
        index's own ⌈βn⌉ + k budget for this call.
    c:
        Optional approximation-ratio override; supporting indexes
        re-derive their (t, β) machinery for it.
    """

    k: int
    budget: int | None = None
    c: float | None = None

    def __post_init__(self) -> None:
        if int(self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "budget", checked_budget(self.budget))
        if self.c is not None:
            if not float(self.c) > 1.0:
                raise ValueError(f"approximation ratio c must exceed 1, got {self.c}")
            object.__setattr__(self, "c", float(self.c))

    @property
    def has_overrides(self) -> bool:
        return self.budget is not None or self.c is not None


@dataclass(frozen=True)
class Range(QuerySpec):
    """An (r, c)-ball range query: the points within distance r.

    The exact reference answers with every point inside B(q, r); an LSH
    index answers with high recall on B(q, r) while admitting points up
    to B(q, c·r) — the paper's (r, c)-ball guarantee.

    Parameters
    ----------
    r:
        Query-ball radius in the original space (must be positive).
    c:
        Optional approximation-ratio override (slack factor of the
        admitted ball); defaults to the index's own c.
    budget:
        Optional per-query candidate-verification cap.
    """

    r: float
    c: float | None = None
    budget: int | None = None

    def __post_init__(self) -> None:
        if not float(self.r) > 0.0:
            raise ValueError(f"radius r must be positive, got {self.r}")
        object.__setattr__(self, "r", float(self.r))
        if self.c is not None:
            if not float(self.c) > 1.0:
                raise ValueError(f"approximation ratio c must exceed 1, got {self.c}")
            object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "budget", checked_budget(self.budget))

    @property
    def has_overrides(self) -> bool:
        return self.budget is not None or self.c is not None


def as_query_spec(spec) -> QuerySpec:
    """Coerce *spec* to a :class:`QuerySpec` (a bare int means ``Knn(k)``)."""
    if isinstance(spec, QuerySpec):
        return spec
    if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
        return Knn(k=int(spec))
    raise TypeError(
        f"spec must be a QuerySpec (Knn/Range) or an int k, got {type(spec).__name__}"
    )


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RangeResult:
    """Ragged outcome of one batched range query (CSR layout).

    Query i matched ``counts[i] = lims[i+1] - lims[i]`` points; its ids
    and distances are the slices ``ids[lims[i]:lims[i+1]]`` and
    ``distances[lims[i]:lims[i+1]]``, sorted by ``(distance, id)``.
    ``stats`` aggregates the per-query diagnostics exactly like
    :class:`~repro.baselines.base.BatchResult`.
    """

    lims: np.ndarray
    ids: np.ndarray
    distances: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)
    per_query_stats: Tuple[Dict[str, float], ...] = ()

    def __post_init__(self) -> None:
        lims = np.asarray(self.lims, dtype=np.int64)
        ids = np.asarray(self.ids, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        if lims.ndim != 1 or lims.size < 2 or lims[0] != 0:
            raise ValueError(f"lims must be 1-D starting at 0, got {lims!r}")
        if np.any(np.diff(lims) < 0):
            raise ValueError("lims must be non-decreasing")
        if ids.shape != distances.shape or ids.ndim != 1:
            raise ValueError(
                f"ids and distances must be matching 1-D arrays, "
                f"got {ids.shape} / {distances.shape}"
            )
        if int(lims[-1]) != ids.size:
            raise ValueError(
                f"lims[-1] = {int(lims[-1])} must equal the match count {ids.size}"
            )
        object.__setattr__(self, "lims", lims)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", distances)

    @property
    def num_queries(self) -> int:
        return int(self.lims.size - 1)

    @property
    def counts(self) -> np.ndarray:
        """Matches per query, shape ``(Q,)``."""
        return np.diff(self.lims)

    def __len__(self) -> int:
        return self.num_queries

    def __getitem__(self, index: int):
        """The i-th query's matches as a ``QueryResult``."""
        from repro.baselines.base import QueryResult

        position = index if index >= 0 else self.num_queries + index
        if not 0 <= position < self.num_queries:
            raise IndexError(f"query index {index} out of range [0, {self.num_queries})")
        lo, hi = int(self.lims[position]), int(self.lims[position + 1])
        stats = (
            dict(self.per_query_stats[position])
            if position < len(self.per_query_stats)
            else {}
        )
        return QueryResult(
            ids=self.ids[lo:hi], distances=self.distances[lo:hi], stats=stats
        )

    def __iter__(self) -> Iterator:
        return (self[i] for i in range(self.num_queries))

    @classmethod
    def from_queries(cls, results: Sequence) -> "RangeResult":
        """Concatenate per-query ``QueryResult``s into one CSR result."""
        from repro.baselines.base import aggregate_stats

        counts = np.asarray([len(result) for result in results], dtype=np.int64)
        lims = np.concatenate([[0], np.cumsum(counts)])
        if len(results):
            ids = np.concatenate([result.ids for result in results])
            distances = np.concatenate([result.distances for result in results])
        else:
            ids = np.empty(0, dtype=np.int64)
            distances = np.empty(0, dtype=np.float64)
        per_query = tuple(dict(result.stats) for result in results)
        return cls(
            lims=lims,
            ids=ids,
            distances=distances,
            stats=aggregate_stats(per_query),
            per_query_stats=per_query,
        )


@dataclass(frozen=True)
class ClosestPairResult:
    """The m closest pairs of the indexed set.

    ``pairs`` is an ``(m, 2)`` int64 matrix of point ids with
    ``pairs[:, 0] < pairs[:, 1]``; ``distances`` the matching original
    space distances.  Rows are sorted by ``(distance, i, j)`` so results
    are deterministic under exact distance ties.
    """

    pairs: np.ndarray
    distances: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pairs = np.asarray(self.pairs, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (m, 2), got {pairs.shape}")
        if distances.shape != (pairs.shape[0],):
            raise ValueError(
                f"distances must have shape ({pairs.shape[0]},), got {distances.shape}"
            )
        if pairs.size and np.any(pairs[:, 0] >= pairs[:, 1]):
            raise ValueError("every pair must satisfy i < j")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "distances", distances)

    def __len__(self) -> int:
        return int(self.pairs.shape[0])

    def __getitem__(self, index: int) -> Tuple[int, int, float]:
        i, j = self.pairs[index]
        return int(i), int(j), float(self.distances[index])

    def __iter__(self) -> Iterator[Tuple[int, int, float]]:
        return (self[i] for i in range(len(self)))


def sort_pairs(
    pairs: np.ndarray, distances: np.ndarray, m: int | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Order candidate pairs by ``(distance, i, j)`` and keep the best m."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    distances = np.asarray(distances, dtype=np.float64)
    if m is not None and distances.size > m:
        # Only pairs tied with or below the m-th distance can be kept: sort those.
        keep = np.flatnonzero(distances <= np.partition(distances, m - 1)[m - 1])
        pairs, distances = pairs[keep], distances[keep]
    order = np.lexsort((pairs[:, 1], pairs[:, 0], distances))
    if m is not None:
        order = order[:m]
    return pairs[order], distances[order]


__all__ = [
    "ClosestPairResult",
    "Knn",
    "QuerySpec",
    "Range",
    "RangeResult",
    "as_query_spec",
    "sort_pairs",
]
