"""ShardedIndex: a multi-worker serving layer over the unified index API.

The engine partitions the dataset across S shards, each an independent
registry-constructed :class:`~repro.baselines.base.ANNIndex` (PM-LSH by
default, but any registered algorithm works as a backend).  A query batch
fans out to every shard and the per-shard answers are merged into one
global result through a stable global → (shard, local) id mapping.  The
engine describes every round as a ``(kind, payload)`` pair
(:mod:`repro.parallel.jobs`) and hands it to one *carrier*, picked once
at construction; which carrier it is changes nothing the engine does:

* ``pool_backend="thread"`` (default) — :class:`~repro.parallel.pool.
  LocalPool`: the engine's own shard objects, inline with one worker,
  on a thread pool otherwise.  NumPy's GEMM-heavy kernels drop the GIL,
  the Python around them does not.
* ``pool_backend="process"`` — a
  :class:`~repro.parallel.pool.WorkerPool` of worker processes, each
  attached **read-only** to its shards' snapshots through
  ``multiprocessing.shared_memory`` (the ``state_arrays()`` export a
  file would hold).  Queries ship only (Q, spec); results return as compact
  arrays; the deterministic merge stays in the parent, so results are
  byte-identical to the thread pool and to a single index.  Writes
  (``add``/``delete``/``compact``) re-publish the affected shards under
  a bumped epoch and workers re-attach — see :doc:`docs/parallelism`.

All three query types fan out:

* **kNN** — per-shard top-k merged by ``(distance, global id)``;
* **range** — per-shard ragged :class:`~repro.queries.RangeResult`s
  concatenated and re-sorted per query (no k cut, every match survives);
* **closest pair** — intra-shard CP on every shard, then a cross-shard
  boundary sweep: with δ the m-th best intra-shard pair distance, every
  cross-shard pair closer than δ is recovered by range-querying each
  later shard with the earlier shard's points at radius δ.

The engine is itself an :class:`ANNIndex`, registered as ``"sharded"``:

>>> import repro
>>> engine = repro.create_index("sharded", backend="pm-lsh", num_shards=4)
>>> engine.fit(data).search(queries, k=10)            # doctest: +SKIP

so the evaluation harness, the benchmarks and the examples drive it with
no special-casing.  ``add()`` routes new points to shards round-robin,
continuing the ``fit`` stripe and exercising each backend's n-dependent
parameter re-derivation, while global ids stay append-only and stable.
"""

from __future__ import annotations

import inspect
import os
import time
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult
from repro.engine.merge import merge_shard_range_results, merge_shard_results
from repro.lifecycle.compaction import CompactionResult, dense_id_map
from repro.lifecycle.tombstones import TombstoneSet
from repro.obs.metrics import MetricsSnapshot
from repro.obs.tracing import current_trace
from repro.parallel.pool import LocalPool, WorkerPool
from repro.queries import ClosestPairResult, Knn, Range, RangeResult, sort_pairs
from repro.registry import get_index_class, register_index
from repro.utils.rng import RandomState, spawn_generators

#: Carrier flavours: ``"thread"`` runs shard jobs in-process (NumPy
#: kernels drop the GIL, everything else contends); ``"process"`` runs
#: them in worker processes attached to shared-memory snapshots (see
#: :mod:`repro.parallel`) — real core parallelism, at the cost of one IPC
#: round-trip per batch.
_POOL_BACKENDS = ("thread", "process")


def _resolve_backend(backend: str | type) -> type:
    """Accept a registry name or an ANNIndex subclass."""
    if isinstance(backend, str):
        return get_index_class(backend)
    if isinstance(backend, type) and issubclass(backend, ANNIndex):
        return backend
    raise TypeError(
        f"backend must be a registry name or an ANNIndex subclass, got {backend!r}"
    )


@register_index("sharded", "engine", "sharded-index")
class ShardedIndex(ANNIndex):
    """Data-partitioned serving engine over any registered backend.

    Parameters
    ----------
    backend:
        Registry name (e.g. ``"pm-lsh"``, ``"exact"``) or ``ANNIndex``
        subclass used for every shard.
    num_shards:
        Number of data partitions S; ``fit`` stripes the dataset over them
        (row i lands on shard i mod S), so cluster structure spreads evenly.
    num_workers:
        Thread-pool width for the per-shard fan-out.  Defaults to
        ``min(num_shards, cpu_count)``; 1 runs shards serially in the
        calling thread.
    backend_params:
        Keyword arguments forwarded to every shard's constructor.  A
        ``"seed"`` entry here takes the master-seed role below (it is
        never passed through verbatim — shards must stay decorrelated).
    seed:
        Master seed; each shard receives an independent sub-seed derived
        from it (when the backend accepts one), so a fixed engine seed
        fixes every shard.
    pool_backend:
        ``"thread"`` (default) fans out through an in-process pool;
        ``"process"`` through a shared-memory worker-process pool
        (:mod:`repro.parallel`) — real multi-core parallelism with
        byte-identical results.  The shard backend must implement the
        snapshot protocol (pm-lsh and exact do) — anything else raises
        ``NotImplementedError`` here, before any worker exists.

    Notes
    -----
    Thread safety: the parallelism lives *inside* each query call (one
    batch fans out across the worker pool).  The engine object itself
    follows the same contract as every other :class:`ANNIndex`: one
    caller thread at a time — serve concurrent clients by batching their
    queries, not by sharing the engine across caller threads.
    """

    name = "ShardedIndex"

    #: Deletes forward to the owning shards, which filter their own
    #: tombstones (natively or by over-fetch) before the engine merge.
    _knn_filters_tombstones = True

    def __init__(
        self,
        *,
        backend: str | type = "pm-lsh",
        num_shards: int = 4,
        num_workers: int | None = None,
        backend_params: Mapping[str, Any] | None = None,
        seed: RandomState = None,
        pool_backend: str = "thread",
    ) -> None:
        super().__init__()
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if pool_backend not in _POOL_BACKENDS:
            raise ValueError(
                f"pool_backend must be one of {_POOL_BACKENDS}, got {pool_backend!r}"
            )
        self._pool_backend = pool_backend
        self._backend_cls = _resolve_backend(backend)
        self._backend_name = getattr(
            self._backend_cls, "registry_name", self._backend_cls.__name__
        )
        # Per-query runtime knobs are forwarded verbatim to the shards, so
        # the engine honours them exactly when its backend does.
        self._honours_knn_overrides = bool(
            getattr(self._backend_cls, "_honours_knn_overrides", False)
        )
        self._honours_range_overrides = bool(
            getattr(self._backend_cls, "_honours_range_overrides", False)
        )
        self.num_shards = int(num_shards)
        self.num_workers = int(
            num_workers
            if num_workers is not None
            else max(1, min(self.num_shards, os.cpu_count() or 1))
        )
        self._backend_params: Dict[str, Any] = dict(backend_params or {})
        self._seed = seed
        #: The shard the next added point goes to: ``add()`` continues the
        #: round-robin stripe ``fit`` laid down (row i on shard i mod S).
        self._cursor = 0
        self.name = f"Sharded[{self._backend_name}x{self.num_shards}]"
        # The one place the pool flavour decides anything: which carrier
        # class :meth:`_carrier` builds (lazily, and again after close()).
        width = min(self.num_workers, self.num_shards)
        if pool_backend == "process":
            self._backend_cls.require_snapshot_support()
            self.name += "/process"
            self._new_carrier = lambda registry, labels: WorkerPool(
                width, registry=registry, labels=labels
            )
        else:
            self._new_carrier = lambda registry, labels: LocalPool(width)

        self._shards: List[ANNIndex] = []
        #: per shard: local id -> global id (append-only after fit).
        self._id_maps: List[np.ndarray] = []
        #: per global id: owning shard / local id within it (append-only).
        self._global_shard = np.empty(0, dtype=np.int64)
        self._global_local = np.empty(0, dtype=np.int64)
        #: The live carrier (lazy; None until the first round and after close()).
        self._pool: LocalPool | WorkerPool | None = None
        self._reset_counters()

    # -- metrics plumbing ----------------------------------------------

    #: (attr, metric name, help) for every lifetime engine counter; the
    #: ``engine_`` prefix keeps these series distinct from the serving
    #: front-end's (which wraps the engine and counts *requests*).
    _COUNTERS = (
        ("_batches_served", "engine_batches_served", "Query batches merged"),
        ("_queries_served", "engine_queries_served", "Queries answered (all types)"),
        (
            "_range_queries_served",
            "engine_range_queries_served",
            "Queries answered through the ragged range path",
        ),
        (
            "_closest_pair_calls",
            "engine_closest_pair_calls",
            "Closest-pair calls answered",
        ),
        ("_points_added", "engine_points_added", "Points routed to shards by add()"),
        ("_points_deleted", "engine_points_deleted", "Points tombstoned via delete()"),
        ("_compactions", "engine_compactions", "Engine compactions run"),
        (
            "_search_time_ms",
            "engine_search_time_ms",
            "Cumulative wall time across served batches",
        ),
    )

    def _on_metrics_changed(self) -> None:
        """(Re)build the engine's instrument references in the bound registry.

        Values carry over on a rebind (e.g. when an ``AsyncSearchServer``
        injects its registry into an engine that already served traffic),
        so ``stats()`` never appears to jump backwards.
        """
        registry = self.metrics
        scope = registry.scope("engine")
        self._obs_labels = scope
        for attr, metric, help_text in self._COUNTERS:
            fresh = registry.counter(metric, help_text, scope)
            old = getattr(self, attr, None)
            if old is not None:
                fresh.value = old.value
            setattr(self, attr, fresh)
        for attr, metric, help_text in (
            ("_last_batch_ms", "engine_last_batch_ms", "Wall time of the last batch"),
            (
                "_last_batch_queries",
                "engine_last_batch_queries",
                "Queries in the last batch",
            ),
        ):
            fresh = registry.gauge(metric, help_text, scope)
            old = getattr(self, attr, None)
            if old is not None:
                fresh.value = old.value
            setattr(self, attr, fresh)
        # Shards publish into the same registry (PM-LSH's probe counters,
        # the baselines' overfetch path) regardless of backend.
        for shard in getattr(self, "_shards", ()):  # may precede first fit
            shard.metrics = registry
        if self.worker_pool is not None:
            self.worker_pool.rebind_metrics(registry, scope)

    def _reset_counters(self) -> None:
        self.metrics  # bind the default registry (and instruments) if needed
        for attr, _, _ in self._COUNTERS:
            getattr(self, attr).reset()
        self._last_batch_ms.set(0.0)
        self._last_batch_queries.set(0)
        self._last_shard_ms: List[float] = [0.0] * self.num_shards
        self._last_shard_candidates: List[float] = [float("nan")] * self.num_shards
        self._last_shard_tree_nodes: List[float] = [float("nan")] * self.num_shards

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _make_shard(self, shard_seed: RandomState) -> ANNIndex:
        params = dict(self._backend_params)
        params.pop("seed", None)  # only derived sub-seeds reach the shards
        accepts_seed = "seed" in inspect.signature(self._backend_cls.__init__).parameters
        if accepts_seed:
            params["seed"] = shard_seed
        return self._backend_cls(**params)

    def fit(self, data: np.ndarray) -> "ShardedIndex":
        # Validate shardability BEFORE the base class rebinds self.data, so
        # a rejected refit leaves a healthy engine fully untouched.
        if self._check_data(data).shape[0] < self.num_shards:
            raise ValueError(
                f"cannot stripe {np.asarray(data).shape[0]} points over "
                f"{self.num_shards} shards; every shard needs at least one point"
            )
        super().fit(data)
        return self

    def _fit(self) -> None:
        """Stripe the dataset over S shards and fit each backend."""
        n = self.n
        # Independent per-shard sub-streams from the master seed (a "seed"
        # in backend_params plays that role instead): a fixed seed fixes
        # every shard, and shards stay decorrelated.
        master = (
            self._backend_params["seed"]
            if "seed" in self._backend_params
            else self._seed
        )
        shard_rngs = spawn_generators(master, self.num_shards)
        self._shards = []
        self._id_maps = []
        for s in range(self.num_shards):
            global_ids = np.arange(s, n, self.num_shards, dtype=np.int64)
            shard = self._make_shard(shard_rngs[s])
            shard.metrics = self.metrics
            shard.fit(self.data[global_ids])
            self._shards.append(shard)
            self._id_maps.append(global_ids)
        self._global_shard = np.arange(n, dtype=np.int64) % self.num_shards
        self._global_local = np.arange(n, dtype=np.int64) // self.num_shards
        self._cursor = n % self.num_shards
        self._reset_counters()

    # ------------------------------------------------------------------
    # id mapping
    # ------------------------------------------------------------------

    def locate(self, global_id: int) -> Tuple[int, int]:
        """Map a global id to its ``(shard, local id)`` home."""
        self._require_built()
        gid = int(global_id)
        if not 0 <= gid < self.n:
            raise IndexError(f"global id {gid} out of range [0, {self.n})")
        return int(self._global_shard[gid]), int(self._global_local[gid])

    @property
    def shards(self) -> Tuple[ANNIndex, ...]:
        """The backend indexes, one per shard (read-only view)."""
        return tuple(self._shards)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(shard.ntotal for shard in self._shards)

    @property
    def shard_live_sizes(self) -> Tuple[int, ...]:
        """Per-shard live counts."""
        return tuple(shard.nlive for shard in self._shards)

    # ------------------------------------------------------------------
    # dynamic growth
    # ------------------------------------------------------------------

    def _add(self, points: np.ndarray) -> np.ndarray:
        """Route new points to shards round-robin; global ids stay
        append-only.

        The engine keeps the global ``self.data`` view alongside the
        per-shard copies (the ANNIndex contract: ``n``/``d``/``data`` are
        defined by it, and the harness reads it) at the cost of one extra
        dataset copy and an O(ntotal) append per ingest batch — the same
        asymptotics as every backend's own ``add``.
        """
        start = self.n
        count = points.shape[0]
        # Local ids append after each shard's raw size: deleted local
        # slots are never reused.
        sizes = np.asarray([shard.ntotal for shard in self._shards], dtype=np.int64)
        assignment = (self._cursor + np.arange(count, dtype=np.int64)) % self.num_shards
        self._cursor = int((self._cursor + count) % self.num_shards)
        local_ids = np.empty(count, dtype=np.int64)
        for s in range(self.num_shards):
            rows = np.flatnonzero(assignment == s)
            if rows.size == 0:
                continue
            # The shard's own add() re-derives its n-dependent parameters.
            self._shards[s].add(points[rows])
            local_ids[rows] = sizes[s] + np.arange(rows.size, dtype=np.int64)
            self._id_maps[s] = np.concatenate([self._id_maps[s], start + rows])
        self._global_shard = np.concatenate([self._global_shard, assignment])
        self._global_local = np.concatenate([self._global_local, local_ids])
        self._set_data(np.vstack([self.data, points]))
        self._points_added.inc(count)
        return np.arange(start, start + count, dtype=np.int64)

    # ------------------------------------------------------------------
    # lifecycle: deletes and compaction
    # ------------------------------------------------------------------

    def _on_delete(self, ids: np.ndarray) -> None:
        """Forward tombstoned global ids to their owning shards.

        Each shard marks (and filters) its own local tombstones; the
        engine's global set — already updated by :meth:`delete` — keeps
        ``nlive`` and the base fallbacks consistent.
        """
        owners = self._global_shard[ids]
        for s in range(self.num_shards):
            local = self._global_local[ids[owners == s]]
            if local.size:
                self._shards[s].delete(local)
        self._points_deleted.inc(int(ids.size))

    def compact(self) -> CompactionResult:
        """Shard-independent compaction: each shard re-fits over its own
        live rows, no cross-shard data movement.

        Surviving global ids renumber densely (in their original order);
        each shard keeps exactly its surviving points, so the per-shard
        rebuilds are independent, and the ``add()`` cursor restarts from
        the new live count.  If some shard lost *every* point, the engine
        instead re-stripes the live rows across all shards (a full re-fit)
        so no shard is left empty.
        """
        self._require_built()
        live = self.live_ids()
        if live.size < self.num_shards:
            raise ValueError(
                f"{self.name}: cannot compact {live.size} live points over "
                f"{self.num_shards} shards; every shard needs at least one point"
            )
        before = self.ntotal
        removed = self.num_tombstones
        if removed == 0 or any(shard.nlive < 1 for shard in self._shards):
            # Nothing shard-local to reclaim, or a shard would re-fit
            # empty: re-stripe the live rows across all shards instead.
            self.fit(self.data[live])
        else:
            survivors: List[np.ndarray] = []
            for s, shard in enumerate(self._shards):
                # Capture the shard's surviving global ids (in local order)
                # BEFORE its compact() clears the local tombstone set.
                survivors.append(self._id_maps[s][shard.live_ids()])
                shard.compact()
            id_map = dense_id_map(live, before)
            self._id_maps = [id_map[gids] for gids in survivors]
            self._global_shard = np.empty(live.size, dtype=np.int64)
            self._global_local = np.empty(live.size, dtype=np.int64)
            for s, gids in enumerate(self._id_maps):
                self._global_shard[gids] = s
                self._global_local[gids] = np.arange(gids.size, dtype=np.int64)
            self._set_data(self.data[live])
            self._tombstones = TombstoneSet()
            self._fitted_n = self.n
            self._index_epoch += 1
            self._cursor = self.nlive % self.num_shards
        self._compactions.inc()
        return CompactionResult(
            id_map=dense_id_map(live, before),
            removed=removed,
            before_ntotal=before,
            after_ntotal=self.ntotal,
            epoch=self.epoch,
        )

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def _carrier(self) -> LocalPool | WorkerPool:
        if self._pool is None:
            self._pool = self._new_carrier(self.metrics, self._obs_labels)
        return self._pool

    @property
    def pool_backend(self) -> str:
        """The fan-out flavour: ``"thread"`` or ``"process"``."""
        return self._pool_backend

    @property
    def worker_pool(self) -> WorkerPool | None:
        """The live :class:`~repro.parallel.pool.WorkerPool`, or None when
        the engine runs on threads / has not served a process batch yet."""
        return self._pool if isinstance(self._pool, WorkerPool) else None

    def start_pool(self) -> WorkerPool:
        """Start the process pool and publish every shard snapshot now.

        Implicit before every process-backend batch; calling it
        explicitly warms the pool from the owning thread — do this before
        handing the engine to an async server when the start method is
        ``fork`` (forking from a worker thread is best avoided).
        """
        self._require_built()
        pool = self._carrier()
        if not isinstance(pool, WorkerPool):
            raise RuntimeError(
                f"{self.name}: start_pool() needs pool_backend='process' "
                f"(this engine runs {self.pool_backend!r} fan-out)"
            )
        return pool.sync(self._shards)

    def close(self) -> None:
        """Shut down the fan-out carrier (idempotent; the index stays
        usable — a fresh carrier is built on the next search).

        Thread pool or worker processes alike: workers get a clean stop,
        and every shared-memory segment is unlinked — nothing is left for
        a ``/dev/shm`` leak check to find.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __del__(self) -> None:  # best-effort cleanup; never raises
        try:
            pool = getattr(self, "_pool", None)
            if pool is not None:  # no waiting at interpreter exit
                pool.terminate()
        except Exception:
            pass

    def _fan_out(
        self, kind: str, payload: Dict[str, Any]
    ) -> Tuple[List[Any], List[float]]:
        """Run one ``(kind, payload)`` round on every shard, returning
        per-shard results and wall times in shard order.

        The carrier gets the live shard list on every call — it runs the
        jobs on those very objects, or keeps its replicas in step with
        them — so whatever sits in ``self._shards`` now is what answers.
        """
        outcome = self._carrier().run(kind, payload, self._shards)
        results, shard_ms = zip(*(outcome[s] for s in range(self.num_shards)))
        return list(results), list(shard_ms)

    def _record_batch(
        self,
        num_queries: int,
        wall_ms: float,
        shard_ms: Sequence[float],
        shard_stats_batches: Sequence,
    ) -> None:
        self._batches_served.inc()
        self._queries_served.inc(num_queries)
        self._search_time_ms.inc(wall_ms)
        self._last_batch_ms.set(wall_ms)
        self._last_batch_queries.set(num_queries)
        self._last_shard_ms = list(shard_ms)
        self._last_shard_candidates = [
            float(batch.stats.get("candidates", float("nan")))
            for batch in shard_stats_batches
        ]
        # Flat-traversal backends report their per-query tree work; the
        # engine surfaces it per shard (NaN when the backend has no tree).
        self._last_shard_tree_nodes = [
            float(batch.stats.get("tree_nodes", float("nan")))
            for batch in shard_stats_batches
        ]

    def _run_batch(
        self,
        kind: str,
        queries: np.ndarray,
        spec: Knn | Range,
        merge: Callable[[List[Any], List[np.ndarray]], Any],
        **merge_meta: int,
    ):
        """Fan the batch out to every shard, then *merge* the answers.

        The spec travels to the shards with the payload, so per-query
        runtime knobs (budget, c) apply inside every shard; what each
        kind does to it there (the kNN k clamp) is the job table's.
        """
        wall_start = time.perf_counter()
        shard_results, shard_ms = self._fan_out(kind, {"queries": queries, "spec": spec})

        trace = current_trace()
        merge_start = time.perf_counter()
        if trace is not None:
            with trace.span("merge", num_shards=self.num_shards, **merge_meta):
                merged = merge(shard_results, self._id_maps)
        else:
            merged = merge(shard_results, self._id_maps)
        merge_ms = (time.perf_counter() - merge_start) * 1e3
        wall_ms = (time.perf_counter() - wall_start) * 1e3

        num_queries = queries.shape[0]
        self._record_batch(num_queries, wall_ms, shard_ms, shard_results)
        merged.stats.update(
            {
                "num_shards": float(self.num_shards),
                "num_workers": float(min(self.num_workers, self.num_shards)),
                "shard_time_ms_max": float(np.max(shard_ms)),
                "shard_time_ms_mean": float(np.mean(shard_ms)),
                "merge_time_ms": merge_ms,
                "batch_time_ms": wall_ms,
                "batch_qps": num_queries / (wall_ms / 1e3) if wall_ms > 0 else 0.0,
            }
        )
        return merged

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Per-shard top-k, merged by ``(distance, global id)`` and cut at k."""
        return self._run_batch(
            "knn",
            queries,
            spec,
            lambda results, id_maps: merge_shard_results(results, id_maps, spec.k),
            k=spec.k,
        )

    def _run_range(self, queries: np.ndarray, spec: Range) -> RangeResult:
        """Every shard match survives (there is no k cut), so the merge is a
        per-query concatenation re-sorted by ``(distance, global id)`` —
        deterministic across shard and worker counts."""
        merged = self._run_batch("range", queries, spec, merge_shard_range_results)
        self._range_queries_served.inc(queries.shape[0])
        return merged

    def _closest_pairs(self, m: int, budget: int | None = None) -> ClosestPairResult:
        """Distributed closest-pair: intra-shard CP + cross-shard sweep.

        1. Every shard answers its own m closest pairs (parallel fan-out);
           translated to global ids these are the intra-shard candidates.
        2. Let δ be the m-th best intra-shard distance.  Any global
           top-m pair not seen yet must *cross* shards and be closer than
           δ, so for every shard pair (s, t), s < t, shard t is
           range-queried with shard s's points at radius δ — recovering
           exactly the cross-shard pairs within δ.
        3. Intra and cross candidates merge by ``(distance, i, j)``.

        With exact shards every step is exact, so the result equals the
        single-index answer; with LSH shards both stages inherit the
        backend's approximation guarantee.  When the shards together hold
        fewer than m intra pairs (tiny shards), the engine falls back to
        the exact self-join over the global dataset.
        """
        self._closest_pair_calls.inc()

        intra_results, _ = self._fan_out("cp", {"m": m, "budget": budget})
        # (an empty shard answer is a (0, 2) / (0,) pair of arrays: it concatenates away)
        intra_pairs = np.concatenate(
            [
                np.sort(self._id_maps[s][result.pairs], axis=1)
                for s, result in enumerate(intra_results)
            ]
        )
        intra_dists = np.concatenate([result.distances for result in intra_results])
        intra_pairs, intra_dists = sort_pairs(intra_pairs, intra_dists)
        if intra_dists.size < m:
            # Not enough intra-shard pairs to bound the sweep radius; the
            # exact global self-join is the only correct answer.
            result = super()._closest_pairs(m, budget=budget)
            result.stats["cross_shard_fallback"] = 1.0
            return result
        delta = float(intra_dists[m - 1])
        # Range(r) needs r > 0; the tiny floor keeps distance-0 duplicate
        # pairs discoverable without admitting anything else.
        sweep_radius = max(delta, float(np.finfo(np.float64).tiny))

        # One sweep job per TARGET shard (all earlier shards' points against
        # it), so the jobs parallelise like any other round while each
        # shard object still serves exactly one querying thread — the same
        # concurrency contract as the kNN/range fan-outs.  Source points are
        # each earlier shard's LIVE rows only (the target shard filters its
        # own tombstones inside range_search); the (source, local ids)
        # bookkeeping stays in the parent.
        sources = [
            (s, src_local, shard.data[src_local])
            for s, shard in enumerate(self._shards)
            for src_local in (shard.live_ids(),)
            if src_local.size
        ]
        sweep_sources = {
            t: [source for source in sources if source[0] < t]
            for t in range(1, self.num_shards)
            if self._shards[t].nlive
        }
        payload = {
            "targets": {
                t: [points for _, _, points in blocks]
                for t, blocks in sweep_sources.items()
            },
            "radius": sweep_radius,
            "budget": budget,
        }
        swept, _ = self._fan_out("sweep", payload)

        cross_pairs: List[np.ndarray] = []
        cross_dists: List[np.ndarray] = []
        verified = 0
        for t, blocks in sweep_sources.items():
            for (s, src_local, _), hits in zip(blocks, swept[t]):
                verified += int(hits.lims[-1])
                gid_s = np.repeat(self._id_maps[s][src_local], hits.counts)
                gid_t = self._id_maps[t][hits.ids]
                if gid_s.size == 0:
                    continue
                pairs = np.column_stack(
                    [np.minimum(gid_s, gid_t), np.maximum(gid_s, gid_t)]
                )
                cross_pairs.append(pairs)
                cross_dists.append(hits.distances)

        all_pairs = np.concatenate([intra_pairs] + cross_pairs)
        all_dists = np.concatenate([intra_dists] + cross_dists)
        best_pairs, best_dists = sort_pairs(all_pairs, all_dists, m)
        stats = {
            "intra_pairs": float(intra_dists.size),
            "cross_pairs": float(sum(p.shape[0] for p in cross_pairs)),
            "sweep_radius": delta,
            "verified": float(intra_dists.size + verified),
        }
        return ClosestPairResult(pairs=best_pairs, distances=best_dists, stats=stats)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def refresh_metrics(self) -> None:
        """Publish the engine's point-in-time values into the registry.

        Lifetime counters are written inline by the query paths; the
        derived and sampled values (sizes, QPS, per-shard last-batch
        work) are gauges refreshed here — called by :meth:`stats` and by
        the serving front-end before an export.
        """
        registry, scope = self.metrics, self._obs_labels
        gauge = lambda name, help: registry.gauge(name, help, scope)  # noqa: E731
        gauge("engine_ntotal", "Stored vectors, dead rows included").set(self.ntotal)
        gauge("engine_nlive", "Live vectors").set(self.nlive)
        gauge("engine_tombstones", "Outstanding tombstones").set(self.num_tombstones)
        gauge("engine_num_shards", "Data partitions").set(self.num_shards)
        gauge("engine_num_workers", "Fan-out worker threads").set(
            min(self.num_workers, self.num_shards)
        )
        gauge("engine_process_pool", "1 when the fan-out runs worker processes").set(
            1.0 if self._pool_backend == "process" else 0.0
        )
        pool = self.worker_pool
        gauge("engine_pool_workers_alive", "Live process-pool workers").set(
            pool.num_workers if pool is not None and pool.running else 0
        )
        search_ms = self._search_time_ms.value
        gauge("engine_qps", "Lifetime queries per second of search wall time").set(
            self._queries_served.value / (search_ms / 1e3) if search_ms > 0 else 0.0
        )
        last_ms = self._last_batch_ms.value
        gauge("engine_last_batch_qps", "Throughput of the last batch").set(
            self._last_batch_queries.value / (last_ms / 1e3) if last_ms > 0 else 0.0
        )
        for s, shard in enumerate(self._shards):
            labels = {**scope, "shard": str(s)}
            registry.gauge(
                "engine_shard_search_ms", "Shard wall time in the last batch", labels
            ).set(self._last_shard_ms[s])
            registry.gauge(
                "engine_shard_candidates", "Candidates per query, last batch", labels
            ).set(self._last_shard_candidates[s])
            registry.gauge(
                "engine_shard_tree_nodes", "Tree nodes per query, last batch", labels
            ).set(self._last_shard_tree_nodes[s])
            registry.gauge(
                "engine_shard_ntotal", "Stored points on the shard", labels
            ).set(shard.ntotal)
            registry.gauge("engine_shard_nlive", "Live points on the shard", labels).set(
                shard.nlive
            )

    def stats(self) -> MetricsSnapshot:
        """This engine's counter and gauge series, read off the registry.

        Keys are the ``engine_*`` names of docs/observability.md; the
        per-shard gauges are keyed ``engine_shard_*{shard="s"}``.
        """
        self._require_built()
        self.refresh_metrics()
        return self.metrics.snapshot(self._obs_labels)

    def __repr__(self) -> str:
        base = (
            f"{type(self).__name__}(backend={self._backend_name!r}, "
            f"shards={self.num_shards}, workers={self.num_workers}"
            + (", process" if self._pool_backend == "process" else "")
        )
        if self.data is None:
            return base + ", unfitted)"
        state = "built" if self._built else "unbuilt"
        return base + f", d={self.d}, ntotal={self.ntotal}, {state})"
