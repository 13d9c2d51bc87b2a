"""The common interface every ANN algorithm in this library implements.

Lifecycle (faiss/sklearn-style)
-------------------------------
An index is constructed from *parameters only*, then bound to data:

>>> index = SomeIndex(seed=0)          # no data yet
>>> index.fit(data)                    # build over an (n, d) matrix
>>> batch = index.search(queries, k)   # (Q, d) -> BatchResult
>>> index.add(new_points)              # dynamic growth

Query model
-----------
``run(queries, spec)`` is the polymorphic entry point: the spec —
:class:`~repro.queries.Knn` or :class:`~repro.queries.Range` — selects
the query type and carries per-call runtime knobs (candidate ``budget``,
approximation ratio ``c``).  ``search(queries, k)`` is sugar for
``run(queries, Knn(k))``, ``range_search(queries, r)`` for
``run(queries, Range(r))``, and ``closest_pairs(m)`` answers closest-pair
search over the indexed set.  Every index answers every query type: the
base class supplies an exact range fallback, which algorithms with a
native sublinear path (PM-LSH) override, and the one closest-pair
answer, the exact self-join.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import kernels
from repro.datasets.distance import chunked_closest_pairs, chunked_range
from repro.lifecycle.compaction import CompactionResult, count_compaction, dense_id_map
from repro.lifecycle.tombstones import TombstoneSet
from repro.persistence import SnapshotError, load_index, save_index
from repro.queries import (
    ClosestPairResult,
    Knn,
    QuerySpec,
    Range,
    RangeResult,
    as_query_spec,
)
from repro.utils.rng import RandomState, as_generator


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one (c, k)-ANN query.

    ``ids`` and ``distances`` are parallel arrays sorted by ascending
    distance (original space).  ``stats`` carries per-query diagnostics —
    candidates verified, range-query rounds, distance computations — used by
    the harness and the ablation benches.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        if ids.shape != distances.shape or ids.ndim != 1:
            raise ValueError(
                f"ids and distances must be matching 1-D arrays, got {ids.shape} / {distances.shape}"
            )
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", distances)

    def __len__(self) -> int:
        return int(self.ids.size)

    @classmethod
    def from_pairs(
        cls, pairs: List[Tuple[int, float]], stats: Dict[str, float] | None = None
    ) -> "QueryResult":
        """Build from ``(id, distance)`` pairs, sorting by ``(distance, id)``.

        The secondary id key matches the sharded engine's merge order, so
        single-index and merged results agree even on tied distances.
        """
        pairs = sorted(pairs, key=lambda pair: (pair[1], pair[0]))
        ids = np.asarray([p[0] for p in pairs], dtype=np.int64)
        distances = np.asarray([p[1] for p in pairs], dtype=np.float64)
        return cls(ids=ids, distances=distances, stats=stats or {})


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched ``search(queries, k)`` call.

    ``ids`` and ``distances`` are ``(Q, k)`` matrices, row i answering
    query i.  Rows where an algorithm returned fewer than k neighbours are
    right-padded with id ``-1`` and distance ``inf`` (so the matrices stay
    rectangular); ``self[i]`` strips the padding again.

    ``stats`` aggregates the per-query diagnostic dictionaries: every key
    appearing in any query's stats is averaged over the queries that
    reported it, and ``"queries"`` records Q.  The raw dictionaries remain
    available in ``per_query_stats``.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)
    per_query_stats: Tuple[Dict[str, float], ...] = ()

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        if ids.shape != distances.shape or ids.ndim != 2:
            raise ValueError(
                f"ids and distances must be matching 2-D arrays, got {ids.shape} / {distances.shape}"
            )
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", distances)

    @property
    def num_queries(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])

    def __len__(self) -> int:
        return self.num_queries

    def __getitem__(self, index: int) -> QueryResult:
        """The i-th query's result, with padding stripped."""
        row_ids = self.ids[index]  # raises IndexError for out-of-range index
        valid = row_ids >= 0
        position = index if index >= 0 else self.num_queries + index
        stats = (
            dict(self.per_query_stats[position])
            if position < len(self.per_query_stats)
            else {}
        )
        return QueryResult(
            ids=row_ids[valid], distances=self.distances[index][valid], stats=stats
        )

    @classmethod
    def from_queries(cls, results: List[QueryResult], k: int) -> "BatchResult":
        """Stack per-query results into one padded batch."""
        num_queries = len(results)
        ids = np.full((num_queries, k), -1, dtype=np.int64)
        distances = np.full((num_queries, k), np.inf, dtype=np.float64)
        for i, result in enumerate(results):
            count = min(len(result), k)
            ids[i, :count] = result.ids[:count]
            distances[i, :count] = result.distances[:count]
        per_query = tuple(dict(result.stats) for result in results)
        return cls(
            ids=ids,
            distances=distances,
            stats=aggregate_stats(per_query),
            per_query_stats=per_query,
        )


def require_finite(array: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first row of *array* that holds a
    NaN or an infinity.

    Non-finite coordinates poison everything downstream silently — the
    ``(distance, id)`` order, r_min calibration, cache keys — so every
    entry point that takes vectors from outside rejects them here.
    """
    finite = np.isfinite(array)
    if finite.all():
        return
    row = (
        f" (first at row {int(np.argmin(finite.all(axis=1)))})" if array.ndim == 2 else ""
    )
    raise ValueError(f"{what} must be finite; found NaN or inf{row}")


def topk_batch(
    rep_q: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    k: int,
    per_query: Tuple[Dict[str, float], ...],
) -> BatchResult:
    """The padded :class:`BatchResult` of a pooled candidate list grouped
    by query (*rep_q* ascending): each query's k smallest
    ``(distance, id)`` pairs by one ``group_topk`` kernel call, ids ``-1``
    and distances ``inf`` past a short row."""
    num_queries = len(per_query)
    lims, top_ids, top_dists = kernels.active().group_topk(
        rep_q, ids, dists, num_queries, k
    )
    taken = np.diff(lims)
    rows = np.repeat(np.arange(num_queries), taken)
    cols = np.arange(rows.size) - np.repeat(lims[:-1], taken)
    out_ids = np.full((num_queries, k), -1, dtype=np.int64)
    out_dists = np.full((num_queries, k), np.inf, dtype=np.float64)
    out_ids[rows, cols] = top_ids
    out_dists[rows, cols] = top_dists
    return BatchResult(
        ids=out_ids,
        distances=out_dists,
        stats=aggregate_stats(per_query),
        per_query_stats=per_query,
    )


def aggregate_stats(per_query: Tuple[Dict[str, float], ...]) -> Dict[str, float]:
    """Mean of every per-query stat key, plus the query count."""
    aggregated: Dict[str, float] = {"queries": float(len(per_query))}
    keys = {key for stats in per_query for key in stats}
    for key in sorted(keys):
        values = [stats[key] for stats in per_query if key in stats]
        if values:
            aggregated[key] = float(np.mean(values))
    return aggregated


class ANNIndex(abc.ABC):
    """Abstract (c, k)-ANN index with a fit/add/search lifecycle.

    Implementations are constructed from parameters only and bound to a
    dataset by :meth:`fit`; :meth:`run` answers a whole query matrix under
    any :class:`~repro.queries.QuerySpec`, :meth:`query` a single vector,
    both by *original-space* distance.  :meth:`add` grows the indexed set
    dynamically.

    Subclasses implement :meth:`_fit` (build the structures over
    ``self.data``) and exactly one kNN path: :meth:`_query_one` (one
    validated vector; the default :meth:`_run_knn` loops it over the
    rows) or :meth:`_run_knn` (a vectorised batch path).  They may
    override :meth:`_run_range` with a native sublinear path (the default
    is the exact scan), and
    :meth:`_add` with an incremental update path (the default re-fits
    over the concatenated dataset).
    """

    #: Human-readable algorithm name (used in result tables).
    name: str = "ANNIndex"

    #: Whether :meth:`_run_knn` / :meth:`_run_range` honour the spec's
    #: ``budget``/``c`` knobs.  Indexes that leave these False still answer
    #: overridden specs, but the result stats carry ``overrides_ignored``
    #: so callers can tell.
    _honours_knn_overrides: bool = False
    _honours_range_overrides: bool = False

    #: Constructor kwargs captured by ``__init_subclass__`` (used by
    #: :func:`repro.lifecycle.compaction.compact_index` to clone the
    #: index into a fresh object with identical parameters).
    _init_kwargs: Optional[Dict] = None

    def __init_subclass__(cls, **kwargs) -> None:
        """Wrap each subclass ``__init__`` to record its keyword arguments.

        Every v2.0 constructor is keyword-only, so the outermost call's
        kwargs fully describe how to build an equivalent index; nested
        ``super().__init__`` calls must not overwrite them, hence the
        "first writer wins" guard.
        """
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is None or getattr(init, "_captures_init_kwargs", False):
            return

        @functools.wraps(init)
        def wrapper(self, *args, **kw):
            if "_init_kwargs" not in self.__dict__:
                self.__dict__["_init_kwargs"] = dict(kw)
            init(self, *args, **kw)

        wrapper._captures_init_kwargs = True
        cls.__init__ = wrapper

    def __init__(self) -> None:
        self.data: Optional[np.ndarray] = None
        self._built = False
        self._tombstones = TombstoneSet()
        #: Monotonically increasing write-epoch: every fit/add/delete/
        #: compact bumps it, and ``save()`` stamps it into snapshots so
        #: :class:`~repro.lifecycle.Replica` can order them.
        self._index_epoch = 0
        #: Cardinality at the last (re-)fit — the growth-ratio baseline
        #: for :class:`~repro.lifecycle.CompactionPolicy`.
        self._fitted_n = 0
        #: Injected metrics registry (None -> the process default); see
        #: the :attr:`metrics` property.
        self._metrics = None

    @property
    def metrics(self):
        """The :class:`~repro.obs.metrics.MetricsRegistry` this index
        publishes into — the process-global default unless one was
        injected (directly, or by the engine/server wrapping it)."""
        if self._metrics is None:
            from repro.obs.metrics import default_registry

            self._metrics = default_registry()
            self._on_metrics_changed()
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        if registry is self._metrics:
            return  # already bound — keep the existing instrument scope
        self._metrics = registry
        self._on_metrics_changed()

    def _on_metrics_changed(self) -> None:
        """Subclass hook fired when the registry is (re)bound — rebuild
        cached instrument references, forward the registry to shards."""

    # ------------------------------------------------------------------
    # data binding
    # ------------------------------------------------------------------

    @staticmethod
    def _check_data(data: np.ndarray) -> np.ndarray:
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty 2-D array, got shape {data.shape}")
        require_finite(data, "data")
        return data

    def _set_data(self, data: np.ndarray) -> None:
        self.data = self._check_data(data)

    @property
    def n(self) -> int:
        if self.data is None:
            raise RuntimeError(f"{self.name}: no dataset bound; call fit(data) first")
        return self.data.shape[0]

    @property
    def d(self) -> int:
        if self.data is None:
            raise RuntimeError(f"{self.name}: no dataset bound; call fit(data) first")
        return self.data.shape[1]

    @property
    def ntotal(self) -> int:
        """Number of stored vectors, dead rows included; 0 before ``fit``."""
        return 0 if self.data is None else int(self.data.shape[0])

    @property
    def nlive(self) -> int:
        """Number of *living* vectors: ``ntotal`` minus the tombstones.

        Queries are answered over the live set — ``search`` validates
        ``k <= nlive`` — while ``ntotal`` keeps counting storage until a
        :meth:`compact` reclaims the dead rows.
        """
        return self.ntotal - len(self._tombstones)

    @property
    def num_tombstones(self) -> int:
        """Number of ids deleted since the last fit/compact."""
        return len(self._tombstones)

    @property
    def tombstones(self) -> TombstoneSet:
        """The tombstone set itself (treat as read-only; use :meth:`delete`)."""
        return self._tombstones

    @property
    def epoch(self) -> int:
        """Monotonic write-epoch: bumps on every fit/add/delete/compact.

        Never reset — ``save()`` stamps it into snapshots, and
        :meth:`repro.lifecycle.Replica.refresh` swaps only to archives
        with a strictly greater stamp.
        """
        return self._index_epoch

    @property
    def fitted_n(self) -> int:
        """Cardinality at the last (re-)fit — the baseline the
        growth-ratio compaction trigger measures drift against."""
        return self._fitted_n

    def live_ids(self) -> np.ndarray:
        """Sorted global ids of the living points."""
        return self._tombstones.live_ids(self.ntotal)

    @property
    def is_built(self) -> bool:
        return self._built

    def __repr__(self) -> str:
        if self.data is None:
            return f"{type(self).__name__}(unfitted)"
        state = "built" if self._built else "unbuilt"
        return f"{type(self).__name__}(d={self.d}, ntotal={self.ntotal}, {state})"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def fit(self, data: np.ndarray) -> "ANNIndex":
        """Bind *data* and build the index; returns self for chaining.

        Calling ``fit`` again re-builds over the new dataset.
        """
        self._set_data(data)
        self._built = False
        self._tombstones = TombstoneSet()
        self._fit()
        self._built = True
        self._fitted_n = self.n
        self._index_epoch += 1
        return self

    @abc.abstractmethod
    def _fit(self) -> None:
        """Build the index structures over ``self.data`` (subclass hook)."""

    def add(self, points: np.ndarray) -> np.ndarray:
        """Add *points* to a fitted index; returns the ids assigned to them.

        The default implementation re-fits over the concatenated dataset —
        always correct, and it re-derives every n-dependent quantity
        (candidate budgets, hash counts) for the grown cardinality.
        Algorithms with a cheaper incremental path override :meth:`_add`.
        """
        self._require_built()
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError(
                f"new points must have dimension {self.d}, got shape {points.shape}"
            )
        if points.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        require_finite(points, "new points")  # before _add touches any structure
        ids = self._add(points)
        self._index_epoch += 1
        return ids

    def _add(self, points: np.ndarray) -> np.ndarray:
        start = self.n
        self._set_data(np.vstack([self.data, points]))
        self._fit()
        return np.arange(start, self.n, dtype=np.int64)

    def delete(self, ids: np.ndarray) -> np.ndarray:
        """Tombstone the points with the given global *ids*.

        A logical delete: the rows stay in storage (``ntotal`` is
        unchanged; ``nlive`` shrinks) but every query path filters them
        out, so results are identical to an index that never held those
        points.  Deleted ids are **never reused** — ``add()`` keeps
        assigning from ``ntotal`` — until a :meth:`compact` renumbers the
        survivors densely.  Returns the deleted ids, sorted and deduplicated.

        Raises ``ValueError`` for non-integer ids, out-of-range ids and
        ids that are already deleted (a double delete is almost always a
        caller bug).
        Deleting every point is allowed; searches then reject any ``k``
        until new points arrive or the index is re-fitted.
        """
        self._require_built()
        ids = np.asarray(ids)
        # A cast would truncate 2.7 to id 2 and delete the wrong point.
        if ids.size and not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(
                f"{self.name}: delete ids must be integers, got dtype {ids.dtype}"
            )
        ids = np.unique(ids.astype(np.int64).ravel())
        if ids.size == 0:
            return ids
        if ids[0] < 0 or ids[-1] >= self.ntotal:
            raise ValueError(
                f"{self.name}: delete ids must be in [0, {self.ntotal}), "
                f"got range [{ids[0]}, {ids[-1]}]"
            )
        already = ids[self._tombstones.contains(ids)]
        if already.size:
            raise ValueError(
                f"{self.name}: ids already deleted: {already[:8].tolist()}"
                + ("..." if already.size > 8 else "")
            )
        self._tombstones.mark(ids)
        self._index_epoch += 1
        self.metrics.counter(
            "index_points_deleted", "Points tombstoned across all indexes"
        ).inc(ids.size)
        self._on_delete(ids)
        return ids

    def _on_delete(self, ids: np.ndarray) -> None:
        """Subclass hook fired after ids were tombstoned (push the dead
        set into auxiliary structures, forward to shards, ...)."""

    def compact(self) -> CompactionResult:
        """Physically drop tombstoned rows, renumbering the survivors.

        Re-makes the index **in place** over exactly the live rows through
        the backend's :meth:`_compact` hook, then clears the tombstone
        set, resets ``fitted_n`` to the live count and bumps the epoch.
        Ids renumber densely in their old order; old global ids translate
        through the returned result's ``id_map``.  By default the hook
        re-fits.  PM-LSH's keeps its hash draw and filters its arrays, so
        its answers do not change, only their ids.  For a copy that leaves
        this index untouched (the serving path), use
        :func:`repro.lifecycle.compact_index`, which runs the same hook.
        """
        self._require_built()
        live = self.live_ids()
        if live.size == 0:
            raise ValueError(f"{self.name}: cannot compact with zero live points")
        before = self.ntotal
        removed = self.num_tombstones
        self._built = False
        self._tombstones = TombstoneSet()
        self._compact(live)
        self._built = True
        self._fitted_n = self.n
        self._index_epoch += 1
        count_compaction(self.metrics, removed)
        return CompactionResult(
            id_map=dense_id_map(live, before),
            removed=removed,
            before_ntotal=before,
            after_ntotal=self.ntotal,
            epoch=self.epoch,
        )

    def _compact(self, live: np.ndarray) -> None:
        """Re-make the index over exactly the rows *live* (sorted global
        ids), which become ids ``0 .. live.size`` (subclass hook).  The
        default re-fits over them."""
        self._set_data(self.data[live])
        self._fit()

    # ------------------------------------------------------------------
    # snapshots (repro.persistence holds the transports)
    # ------------------------------------------------------------------

    #: :meth:`state_arrays` keys the file transport leaves out because
    #: :meth:`from_state_arrays` re-derives them when absent.
    _rederivable_arrays: Tuple[str, ...] = ()

    @classmethod
    def require_snapshot_support(cls) -> None:
        """Raise the one typed error for a backend without the snapshot
        protocol: it cannot be saved, nor serve behind the process pool."""
        if cls.state_arrays is ANNIndex.state_arrays:
            raise NotImplementedError(
                f"{cls.__name__} does not implement the snapshot protocol "
                "(state_arrays/from_state_arrays), so it cannot be saved or "
                "published to the process pool; the backends that do are "
                "pm-lsh and exact"
            )

    def state_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict]:
        """Export the built index as ``(arrays, params)``: a flat
        ``{key: ndarray}`` of everything bulky, handed out **without
        copying**, and a JSON-able dict of the rest.  Lifecycle state
        (epoch, tombstones, ``fitted_n``) is not the backend's business —
        :mod:`repro.persistence` stamps and re-applies it."""
        self.require_snapshot_support()

    @classmethod
    def from_state_arrays(cls, arrays: Mapping[str, np.ndarray], params: Dict) -> "ANNIndex":
        """Rebuild an index from :meth:`state_arrays` output.  *arrays*
        may be read-only views into a shared-memory segment: keep them as
        they are — no copy, no write; ``_rederivable_arrays`` keys may be
        absent.  :func:`repro.persistence.restore_state` then marks the
        result built and re-applies the lifecycle state."""
        cls.require_snapshot_support()

    def save(self, path) -> None:
        """Persist the index as one ``.npz`` archive at exactly *path*
        (``str`` or ``os.PathLike``; no suffix is appended), replacing any
        previous archive atomically.  :func:`repro.load_index` restores it."""
        save_index(self, path)

    @classmethod
    def load(cls, path) -> "ANNIndex":
        """:func:`repro.load_index`, plus a check that the archive holds
        an index of this class."""
        index = load_index(path)
        if not isinstance(index, cls):
            raise SnapshotError(
                f"{str(path)!r} holds a {type(index).__name__}, not a {cls.__name__}"
            )
        return index

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def query(self, q: np.ndarray, k: int) -> QueryResult:
        """Approximate k nearest neighbours of the single vector *q*.

        A one-row :meth:`run`: the same validation (``k <= nlive``,
        finite coordinates), tombstone filtering and stats as
        ``search(q[None, :], k)[0]``.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 1:
            raise ValueError(f"query takes one (d,) vector, got shape {q.shape}")
        return self.run(q[None, :], Knn(k=int(k)))[0]

    def run(self, queries: np.ndarray, spec: QuerySpec | int):
        """Answer every row of *queries* under *spec* (the polymorphic entry).

        Accepts a ``(Q, d)`` matrix (or one ``(d,)`` vector, treated as
        Q = 1).  A :class:`~repro.queries.Knn` spec (or a bare int k)
        returns a :class:`BatchResult`; a :class:`~repro.queries.Range`
        spec returns a ragged :class:`~repro.queries.RangeResult`.  Specs
        may carry per-call runtime knobs — indexes that cannot honour a
        knob answer the plain query and set ``overrides_ignored`` in the
        result stats.
        """
        spec = as_query_spec(spec)
        self._require_built()
        if isinstance(spec, Knn):
            queries = self._validate_queries(queries, spec.k)
            result = self._run_knn(queries, spec)
            dead = self.num_tombstones
            if dead:
                result.stats["tombstones"] = float(dead)
                result.stats["nlive"] = float(self.nlive)
            if spec.has_overrides and not self._honours_knn_overrides:
                result.stats["overrides_ignored"] = 1.0
            return result
        if isinstance(spec, Range):
            queries = self._validate_range_queries(queries)
            result = self._run_range(queries, spec)
            if spec.has_overrides and not self._honours_range_overrides:
                result.stats["overrides_ignored"] = 1.0
            return result
        raise TypeError(f"{self.name}: unsupported query spec {spec!r}")

    def search(self, queries: np.ndarray, k: int) -> BatchResult:
        """Approximate k nearest neighbours of every row of *queries*.

        Sugar for ``run(queries, Knn(k))``.
        """
        return self.run(queries, Knn(k=int(k)))

    def range_search(
        self,
        queries: np.ndarray,
        r: float,
        *,
        c: float | None = None,
        budget: int | None = None,
    ) -> RangeResult:
        """All points within distance *r* of every query row (ragged).

        Sugar for ``run(queries, Range(r, c=c, budget=budget))``.  The
        exact fallback returns precisely B(q, r); native LSH paths answer
        with the (r, c)-ball guarantee — high recall on B(q, r), admitted
        points bounded by B(q, c·r).
        """
        return self.run(queries, Range(r=r, c=c, budget=budget))

    def closest_pairs(self, m: int = 1) -> ClosestPairResult:
        """The m closest pairs of live indexed points, sorted by
        ``(distance, i, j)``: the exact blocked self-join on every backend
        (:meth:`_closest_pairs`)."""
        self._require_built()
        m = int(m)
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if self.nlive < 2:
            raise ValueError(
                f"{self.name}: need at least 2 live indexed points, have {self.nlive}"
            )
        max_pairs = self.nlive * (self.nlive - 1) // 2
        return self._closest_pairs(min(m, max_pairs))

    # -- subclass hooks -------------------------------------------------

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Default kNN batch path: a per-row :meth:`_query_one` loop.
        Backends that override it have no per-query path."""
        return BatchResult.from_queries(
            [self._query_one(row, spec.k) for row in queries], k=spec.k
        )

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        """k nearest neighbours of one validated ``(d,)`` float64 vector,
        over the live rows: a dead id is skipped where the candidates are
        gathered, before it is verified or counted."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _query_one nor _run_knn"
        )

    # -- shared by the bucketed baselines ---------------------------------

    def _fallback_candidates(self, k: int) -> np.ndarray:
        """Degenerate miss (no probe found anything): ``4k`` random ids
        from the backend's shared generator ``self._rng``, so the contract
        (k results when nlive ≥ k) holds.  Drawn from the *live* ids under
        tombstones, like every other candidate; without tombstones the draw
        is bit-identical to sampling ``range(n)``."""
        if self._tombstones:
            live = self.live_ids()
            return self._rng.choice(live, size=min(live.size, 4 * k), replace=False)
        return self._rng.choice(self.n, size=min(self.n, 4 * k), replace=False)

    def _verify_pooled(self, queries: np.ndarray, k: int, candidates_of) -> BatchResult:
        """kNN over per-query candidate sets: ``candidates_of(q)`` gives
        each row's distinct ids, dead ids are dropped (a row left with none
        takes :meth:`_fallback_candidates`, drawn in row order), and every
        (query, candidate) pair is verified by one gathered kernel call
        before :func:`topk_batch`'s canonical cut.  Per-query stats:
        ``candidates``."""
        alive = self._alive_rows()
        blocks = []
        for q in queries:
            ids = candidates_of(q)
            if alive is not None:
                ids = ids[alive[ids]]
            blocks.append(ids if ids.size else self._fallback_candidates(k))
        counts = np.asarray([block.size for block in blocks], dtype=np.int64)
        ids = np.concatenate(blocks).astype(np.int64, copy=False)
        rep_q = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        dists = kernels.active().verify_distances(self.data, ids, queries, rep_q)
        per_query = tuple({"candidates": float(count)} for count in counts)
        return topk_batch(rep_q, ids, dists, k, per_query)

    def _alive_rows(self) -> Optional[np.ndarray]:
        """Boolean mask over the stored rows, True where live; ``None``
        without tombstones (the exact scan's ``alive``)."""
        return self._tombstones.alive_mask(self.ntotal) if self._tombstones else None

    def _run_range(self, queries: np.ndarray, spec: Range) -> RangeResult:
        """Exact fallback: the blocked exact scan of the live rows
        (:func:`~repro.datasets.distance.chunked_range`).

        Ignores the spec's ``c``/``budget`` knobs — an exact answer
        trivially satisfies any (r, c) contract.  Every distance comes
        from differences of its own row, so the floats do not depend on
        how the dataset is partitioned (sharded answers equal single ones
        byte for byte) or on the tombstones.
        """
        result = chunked_range(queries, self.data, spec.r, alive=self._alive_rows())
        per_query = tuple(
            {"candidates": float(self.nlive), "returned": float(count)}
            for count in result.counts
        )
        return replace(result, stats=aggregate_stats(per_query), per_query_stats=per_query)

    def _closest_pairs(self, m: int) -> ClosestPairResult:
        """The blocked exact self-join over the live rows
        (:func:`~repro.datasets.distance.chunked_closest_pairs`); every
        pair counts as verified."""
        result = chunked_closest_pairs(self.data, m, alive=self._alive_rows())
        pair_count = float(self.nlive * (self.nlive - 1) // 2)
        result.stats.update(candidate_pairs=pair_count, verified=pair_count)
        return result

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError(f"{self.name}: call fit(data) before querying")

    def _validate_query(self, q: np.ndarray, k: int) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.d,):
            raise ValueError(f"query must have shape ({self.d},), got {q.shape}")
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {k}")
        require_finite(q, "query")
        return q

    def _validate_queries(self, queries: np.ndarray, k: int) -> np.ndarray:
        queries = self._validate_range_queries(queries)
        if not 1 <= k <= self.nlive:
            detail = (
                f" ({self.num_tombstones} of {self.ntotal} points deleted)"
                if self._tombstones
                else ""
            )
            raise ValueError(f"k must be in [1, {self.nlive}]{detail}, got {k}")
        return queries

    def _validate_range_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self.d:
            raise ValueError(
                f"queries must have shape (Q, {self.d}), got {queries.shape}"
            )
        if queries.shape[0] == 0:
            raise ValueError("queries must contain at least one row")
        require_finite(queries, "queries")
        return queries


class CollisionCountingLSH(ANNIndex):
    """kNN by collision counting over a radius ladder: the round loop of
    C2LSH and QALSH, §3.1's radius-enlarging methods.

    Round r counts, for every still-active query, in how many of the m
    hash functions each point collides with it at the ladder's r-th
    radius.  Live points reaching ``collision_threshold`` are verified once,
    in the original space, by one gathered kernel call per round.  A
    query stops once k verified points lie within the round's stop
    distance or ``⌈β·n⌉ + k`` points are verified (64 rounds at most),
    and answers with the canonical ``(distance, id)`` cut of everything
    it verified.  Subclasses say how a round counts (:meth:`_ladder`,
    :meth:`_round_counter`) and set ``m``, ``alpha``, ``beta`` and
    ``collision_threshold`` in ``_fit``.

    Both recipes take error probability ``delta`` ∈ (0, 1) and
    false-positive fraction β = ``false_positive_base`` / n.
    """

    #: Cap on (block queries × n) collision-matrix entries per sweep.
    _BATCH_BLOCK_ENTRIES = 8_000_000

    #: Ladder rounds a query may take before it answers with what it has.
    _MAX_ROUNDS = 64

    def __init__(
        self, *, c: float, delta: float, false_positive_base: float, seed: RandomState
    ) -> None:
        super().__init__()
        if c <= 1.0:
            raise ValueError(f"approximation ratio c must exceed 1, got {c}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"error probability delta must be in (0, 1), got {delta}")
        if false_positive_base <= 0:
            raise ValueError(
                f"false_positive_base must be positive, got {false_positive_base}"
            )
        self.c = float(c)
        self.delta = float(delta)
        self.false_positive_base = float(false_positive_base)
        self._rng = as_generator(seed)
        # β, m, α and the collision threshold depend on n, so they are
        # derived in _fit() (and re-derived whenever add()'s re-fit grows
        # the dataset).
        self.beta: float | None = None
        self.m: int | None = None
        self.alpha: float | None = None
        self.collision_threshold: int | None = None

    @abc.abstractmethod
    def _ladder(self):
        """Endless ``(radius, stop distance)`` pairs, one per round."""

    @abc.abstractmethod
    def _round_counter(self, queries: np.ndarray):
        """A ``count(idx, radius)`` over this block of *queries*: the
        ``(idx.size, n)`` collision counts of the rows *idx* at *radius*."""

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        k = spec.k
        num_queries = queries.shape[0]
        budget = int(math.ceil(self.beta * self.n)) + k
        rounds = np.zeros(num_queries, dtype=np.int64)
        block = max(1, self._BATCH_BLOCK_ENTRIES // max(1, self.n))
        pools = [
            self._knn_block(
                queries, np.arange(start, min(start + block, num_queries)), k, budget, rounds
            )
            for start in range(0, num_queries, block)
        ]
        rep_q, ids, dists = (np.concatenate(parts) for parts in zip(*pools))
        order = np.argsort(rep_q, kind="stable")  # round-major -> grouped
        rep_q, ids, dists = rep_q[order], ids[order], dists[order]
        verified = np.bincount(rep_q, minlength=num_queries)
        per_query = tuple(
            {
                "candidates": float(verified[q]),
                "m": float(self.m),
                "rounds": float(rounds[q]),
            }
            for q in range(num_queries)
        )
        return topk_batch(rep_q, ids, dists, k, per_query)

    def _knn_block(
        self, queries: np.ndarray, rows: np.ndarray, k: int, budget: int, rounds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the ladder for the query *rows*; returns their verified
        ``(query, id, distance)`` pool and bumps ``rounds`` in place."""
        kernel = kernels.active()
        count = self._round_counter(queries[rows])
        seen = np.zeros((rows.size, self.n), dtype=bool)
        seen[:, self._tombstones.ids()] = True  # dead ids are never verified
        active = np.ones(rows.size, dtype=bool)
        pool_q = np.empty(0, dtype=np.int64)
        pool_ids = np.empty(0, dtype=np.int64)
        pool_dists = np.empty(0, dtype=np.float64)
        for _, (radius, stop) in zip(range(self._MAX_ROUNDS), self._ladder()):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            rounds[rows[idx]] += 1
            counts = count(idx, radius)
            pos, fresh = np.nonzero((counts >= self.collision_threshold) & ~seen[idx])
            if fresh.size:
                owner = idx[pos]
                seen[owner, fresh] = True
                dists = kernel.verify_distances(self.data, fresh, queries, rows[owner])
                pool_q = np.concatenate([pool_q, owner])
                pool_ids = np.concatenate([pool_ids, fresh])
                pool_dists = np.concatenate([pool_dists, dists])
            within = np.bincount(pool_q[pool_dists <= stop], minlength=rows.size)
            verified = np.bincount(pool_q, minlength=rows.size)
            active &= (within < k) & (verified < budget)
        return rows[pool_q], pool_ids, pool_dists
