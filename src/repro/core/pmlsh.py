"""PM-LSH: Algorithms 1 and 2 of the paper on top of the PM-tree.

Query pipeline (Fig. 2's three components):

1. **data partitioning** — m Gaussian projections map the dataset into R^m,
   a PM-tree with s global pivots indexes the projected points;
2. **distance estimation** — the Eq. 10 solver turns (m, c, α1) into the
   projected radius multiplier t and candidate budget β;
3. **point probing** — range queries ``range(q', t·r)`` with
   ``r = r_min, c·r_min, c²·r_min, …`` collect candidates, each verified by
   its true distance, until k points within c·r are known or βn + k
   candidates have been inspected.

The operating point
-------------------
A query costs about n·m — the projected pass over every point — plus
β(m)·n·d for the candidate gather, and Eq. 10's β(m) falls fast as m
grows.  So m is not fixed at the paper's 15: unless ``params.m`` is
set, ``fit`` picks it from n by
:func:`~repro.core.params.hash_count_for` and solves (t, β) for it, which
keeps Theorem 1 at whatever m it picks.  From then on ``params`` holds
the resolved int (docs/tuning.md, "How many hash functions").

Exact arithmetic where a decision is made
------------------------------------------
Algorithm 2's answer depends on exact distances at five boundaries
only: the projected ball's radius, the annulus floor, the L-th
candidate of the budget, termination test 1's c·r and the k-th best.
Both distance stages therefore estimate first — the flat tree's dense
pass in the projected space, and here ``‖x‖² − 2·x·q + ‖q‖²`` over the
stored row norms ``sqnorm`` in the original space — and compute exact
distances only for the rows whose estimate lies within its proven error
band of a boundary (docs/kernels.md, "The band contract").  Ids,
distances, ties and stats are those of verifying every candidate;
``stats["rescored"]`` and the ``candidates_rescored`` counter say how
many exact re-scores the bands cost.

Beyond (c, k)-ANN the same machinery answers the VLDBJ extension's
(r, c)-ball range queries: :meth:`PMLSH._run_range` routes them through a
single projected range probe at radius t·c·r.  Closest pairs are the
exact blocked self-join every index inherits
(:meth:`~repro.baselines.base.ANNIndex.closest_pairs`): a projected
self-join lost to it on both time and recall.  Per-query runtime knobs —
candidate budget and approximation ratio — arrive through the
:class:`~repro.queries.QuerySpec` layer; a per-call ``c`` re-solves the
(t, β) pair through a small cache.

Traversal
---------
The PM-tree is only ever bulk-built (at ``fit``, at a fold, or lazily
for validation), and the build emits packed arrays; kNN, range and
Algorithm 1's :meth:`PMLSH.ball_cover_query` run over the
structure-of-arrays snapshot that wraps them
(:class:`~repro.pmtree.flat.FlatPMTree`): one level-synchronous traversal
answers the whole query batch, pruning with Eq. 5 as vectorised masks.
The per-query walks of a pointer PM-tree that define the same answers
live under ``tests/oracles/`` as the differential contract.

Writes
------
A candidate set is defined by projected distances alone, so how a point
reached the index cannot change an answer.  :meth:`PMLSH.add` therefore
never inserts: it appends the projected rows to the flat tree's
*unindexed tail*, which every query scores with the dense pass it already
runs over the leaves, and re-clusters the whole matrix (``_build_tree``
+ ``flatten()``) once the tail would outgrow the indexed prefix
(``_TAIL_FOLD_RATIO``).  For the same reason :meth:`PMLSH.compact` does
not re-fit: it drops the dead rows from every array and the dead slots
from the flat tree, keeps the hash draw, and runs the same fold rule.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.baselines.base import ANNIndex, BatchResult, QueryResult, aggregate_stats
from repro.core.estimation import SolvedParameters, solve_parameters
from repro.core.hashing import GaussianProjection
from repro.core.params import (
    HASH_COUNT_RANGE,
    RADIUS_SAMPLE_PAIRS,
    PMLSHParams,
    hash_count_for,
)
from repro.core.radius import (
    radius_schedule,
    range_candidate_budget,
    select_initial_radius,
)
from repro.datasets.distance import (
    DistanceDistribution,
    point_to_points_distances,
    sample_distance_distribution,
)
from repro.kernels.fast import closest_mask, expansion_tol, limit_band, sq_distance_estimates
from repro.obs.tracing import current_trace
from repro.persistence import SnapshotError
from repro.pmtree.flat import FlatPMTree
from repro.pmtree.tree import PMTree
from repro.queries import Knn, Range, RangeResult
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator


#: ``add`` folds the tail into a fresh bulk build when it would hold more
#: than this many rows per indexed row.  Every kNN at the default β scores
#: every leaf slot densely, and a tail row costs a query what a leaf slot
#: does, so at 1.0 the dense work per query never more than doubles
#: between folds; each fold at least doubles the indexed prefix, so the
#: rebuilds stay linear in the rows added.  Not a parameter.
_TAIL_FOLD_RATIO = 1.0


def _row_sqnorms(points: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", points, points)


class _TreeWork:
    """Accumulates a probe's counters across rounds and query blocks.

    ``into_stats`` publishes them as per-query means on a batch-level
    stats dict: total node accesses (``tree_nodes``), distance
    evaluations (``tree_dist_comps``), the tree height (``tree_levels``),
    one ``tree_visits_l{d}`` counter per depth level — the per-level
    frontier work the sharded engine surfaces per shard — and the exact
    re-scores an error band forced (``rescored``: the traversal's
    projected ones plus the caller's original-space ones).
    """

    def __init__(self, height: int) -> None:
        self.height = height
        self.nodes = 0
        self.dist_comps = 0
        self.rescored = 0
        self.level_visits = np.zeros(height, dtype=np.int64)

    def add(self, stats) -> None:
        self.nodes += int(stats.nodes.sum())
        self.dist_comps += int(stats.dist_comps.sum())
        self.rescored += int(stats.rescored.sum())
        self.level_visits[: stats.level_visits.size] += stats.level_visits

    def into_stats(self, target: Dict[str, float], num_queries: int) -> None:
        per_query = max(1, num_queries)
        target["tree_nodes"] = self.nodes / per_query
        target["tree_dist_comps"] = self.dist_comps / per_query
        target["rescored"] = self.rescored / per_query
        target["tree_levels"] = float(self.height)
        for depth in range(self.height):
            target[f"tree_visits_l{depth}"] = float(self.level_visits[depth]) / per_query


class _Round:
    """One probe round's candidates, grouped by query (``lims`` over the
    block's query rows): owner row, id, norm-expansion estimate of d², and
    the exact distances a band asked for — ``None`` until one did, NaN
    where none was computed."""

    __slots__ = ("owner", "lims", "ids", "keys", "exact")

    def __init__(self, idx, lims, ids, keys, num_queries: int) -> None:
        counts = np.zeros(num_queries, dtype=np.int64)
        counts[idx] = np.diff(lims)
        self.owner = np.repeat(idx, counts[idx])
        self.lims = np.concatenate([[0], np.cumsum(counts)]).tolist()
        self.ids, self.keys = ids, keys
        self.exact: Optional[np.ndarray] = None

    @staticmethod
    def rows_of(pool: List["_Round"], q: int):
        """Query *q*'s ``(ids, keys, exact or None)`` over every round —
        views when one round holds them all."""
        spans = [(part, part.lims[q], part.lims[q + 1]) for part in pool]
        spans = [span for span in spans if span[2] > span[1]]
        if len(spans) == 1:
            part, lo, hi = spans[0]
            exact = None if part.exact is None else part.exact[lo:hi]
            return part.ids[lo:hi], part.keys[lo:hi], exact
        ids = np.concatenate([part.ids[lo:hi] for part, lo, hi in spans] or [np.empty(0, np.int64)])
        keys = np.concatenate([part.keys[lo:hi] for part, lo, hi in spans] or [np.empty(0)])
        if all(part.exact is None for part, _, _ in spans):
            return ids, keys, None
        exact = [
            np.full(hi - lo, np.nan) if part.exact is None else part.exact[lo:hi]
            for part, lo, hi in spans
        ]
        return ids, keys, np.concatenate(exact)


@register_index("pm-lsh")
class PMLSH(ANNIndex):
    """The PM-LSH index (the paper's primary contribution).

    Parameters
    ----------
    params:
        Tunables; see :class:`~repro.core.params.PMLSHParams`.
    seed:
        Controls projection directions, pivot selection and the F(x) sample.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import PMLSH
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(1000, 64))
    >>> index = PMLSH(seed=0).fit(data)
    >>> result = index.query(data[0] + 0.01, k=5)
    >>> len(result)
    5
    >>> batch = index.search(data[:8] + 0.01, k=5)
    >>> batch.ids.shape
    (8, 5)
    """

    name = "PM-LSH"
    _honours_knn_overrides = True
    _honours_range_overrides = True

    def __init__(
        self,
        *,
        params: PMLSHParams | None = None,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        self.params = params or PMLSHParams()
        self._rng = as_generator(seed)
        self.projection: Optional[GaussianProjection] = None
        self.projected: Optional[np.ndarray] = None
        #: ‖x‖² per data row: the constant term of the original-space
        #: estimates verification ranks candidates by (8 bytes a row).
        self.sqnorm: Optional[np.ndarray] = None
        #: the built tree behind ``_flat``'s indexed prefix; None after a
        #: snapshot restore or a compaction until :attr:`tree` is read.
        self._tree: Optional[PMTree] = None
        #: the flat snapshot every query traverses (see :attr:`flat_tree`).
        self._flat: Optional[FlatPMTree] = None
        self.solved: SolvedParameters = self._solve_for(self.params.c)
        #: (t, β) re-solved per approximation ratio — per-query ``c``
        #: overrides hit this cache instead of scipy's χ² solver.
        self._solved_cache: Dict[float, SolvedParameters] = {
            self.params.c: self.solved
        }
        self.distance_distribution: Optional[DistanceDistribution] = None
        self.metrics  # bind the registry so the probe counters exist

    def _on_metrics_changed(self) -> None:
        """(Re)bind the probe counters.  Deliberately *unlabeled*: every
        PM-LSH instance in the process (each engine shard included)
        publishes into the same series, so ``tree_nodes_visited`` and
        ``candidates_verified`` read as whole-process probe work."""
        registry = self.metrics
        self._c_tree_nodes = registry.counter(
            "tree_nodes_visited", "PM-tree nodes visited by flat traversals"
        )
        self._c_verified = registry.counter(
            "candidates_verified", "Candidates scored by original-space distance"
        )
        self._c_rescored = registry.counter(
            "candidates_rescored",
            "Exact distances computed because an estimate fell in an error band",
        )
        self._c_rounds = registry.counter(
            "probe_rounds", "Radius-enlarging probe rounds executed"
        )

    def _solve_for(self, c: float) -> SolvedParameters:
        # Until ``fit`` resolves a rule-chosen m: the rule's low end.
        m = self.params.m if self.params.m is not None else HASH_COUNT_RANGE[0]
        solved = solve_parameters(
            m=m,
            c=c,
            alpha1=self.params.alpha1,
            beta_multiplier=self.params.beta_multiplier,
        )
        if self.params.beta_override is not None:
            solved = replace(solved, beta=self.params.beta_override)
        return solved

    def solved_for(self, c: float | None) -> SolvedParameters:
        """The (t, β) bundle for approximation ratio *c* (cached; ``None``
        means the index's own ``params.c``)."""
        if c is None:
            return self.solved
        c = float(c)
        if c not in self._solved_cache:
            self._solved_cache[c] = self._solve_for(c)
        return self._solved_cache[c]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _resolve_hash_count(self) -> None:
        """Fix a rule-chosen m (``params.m is None``) for this dataset size
        (:func:`~repro.core.params.hash_count_for`) and re-solve (t, β) for
        it.  From here ``params`` holds the int — and so do snapshots and
        the captured constructor arguments — so the index keeps its m
        through ``add()``, compaction and restores."""
        if self.params.m is not None:
            return
        self.params = replace(self.params, m=hash_count_for(self.n, self.params))
        self.solved = self._solve_for(self.params.c)
        self._solved_cache = {self.params.c: self.solved}
        self._init_kwargs = {**(self._init_kwargs or {}), "params": self.params}

    def _fit(self) -> None:
        """Fix m, project the dataset, bulk-build the PM-tree, estimate F(x)."""
        self._resolve_hash_count()
        params = self.params
        # A re-fit lets go of the previous structures first, so its peak
        # does not hold two indexes' arrays.
        self._tree = self._flat = self.projected = self.sqnorm = None
        self.projection = GaussianProjection(self.d, params.m, seed=self._rng)
        self.projected = self.projection.project(self.data)
        self.sqnorm = _row_sqnorms(self.data)
        self._tree = PMTree.build(
            self.projected,
            num_pivots=params.num_pivots,
            capacity=params.node_capacity,
            pivot_method=params.pivot_method,
            use_rings=params.use_rings,
            use_parent_filter=params.use_parent_filter,
            seed=self._rng,
        )
        self._flat = self._tree.flatten()
        # F(x) over ORIGINAL distances drives r_min selection (§4.5); the HV
        # statistic being ≈ 1 is what licenses reusing it for every query.
        self.distance_distribution = sample_distance_distribution(
            self.data,
            num_pairs=min(RADIUS_SAMPLE_PAIRS, max(1000, 10 * self.n)),
            seed=self._rng,
        )

    @property
    def tree(self) -> Optional[PMTree]:
        """The built :class:`~repro.pmtree.tree.PMTree` over the *indexed*
        rows — the bulk builder's output, for validation and inspection.

        Rows :meth:`add` appended since the last build are in the flat
        tree's tail, not here.  After :meth:`fit` or a fold it is the tree
        that was just built, and the flat tree shares its arrays.  After a
        snapshot restore or a :meth:`compact` that did not fold it starts
        out *unmaterialised* (nothing the index does needs it) and is
        rebuilt deterministically from the stored pivots on first access.
        A compaction drops slots from the flat tree without re-clustering,
        so that rebuild need not have the flat tree's node layout; it
        answers the same, because matches depend on projected distances
        only.
        """
        if self._tree is None and self._flat is not None:
            flat = self._flat
            self._tree = self._build_tree(
                self.projected[: flat.leaf_ids.size], flat.pivots
            )
        return self._tree

    def _build_tree(self, points: np.ndarray, pivots: np.ndarray) -> PMTree:
        """Deterministic bulk build over *points* with fixed *pivots*: the
        fold of :meth:`_fold_if_due`, the lazy :attr:`tree` and the legacy
        restore of :meth:`from_state_arrays`."""
        params = self.params
        return PMTree.build(
            points,
            num_pivots=pivots.shape[0],
            capacity=params.node_capacity,
            pivot_method=params.pivot_method,
            use_rings=params.use_rings,
            use_parent_filter=params.use_parent_filter,
            seed=0,
            pivots=pivots,
        )

    @property
    def flat_tree(self) -> FlatPMTree:
        """The flattened PM-tree snapshot the batched paths traverse.

        Taken at :meth:`fit` (or restored directly by
        :meth:`from_state_arrays`) and kept across writes: :meth:`add`
        extends its tail in place and :meth:`delete` updates its dead
        mask; a fold or a compaction replaces it.
        """
        self._require_built()
        return self._flat

    def _publish_work(self, work: _TreeWork, target: Dict[str, float], num_queries: int) -> None:
        """A probe's counters onto its result stats and the registry."""
        work.into_stats(target, num_queries)
        self._c_tree_nodes.inc(work.nodes)
        self._c_rescored.inc(work.rescored)

    def _on_delete(self, ids: np.ndarray) -> None:
        """Push the grown dead set into the flat snapshot."""
        self._flat.set_tombstones(self._tombstones.ids())

    def candidate_budget(self, k: int, solved: SolvedParameters | None = None) -> int:
        """Algorithm 2's verification cap ⌈βn⌉ + k at the *current live* n.

        Evaluated per query so the budget tracks dataset growth through
        :meth:`add` and shrinkage through :meth:`delete`; a *solved*
        bundle from a per-query ``c`` override supplies its own β.
        """
        beta = (solved or self.solved).beta
        return int(np.ceil(beta * self.nlive)) + k

    # ------------------------------------------------------------------
    # Algorithm 1: the (r, c)-BC query
    # ------------------------------------------------------------------

    def ball_cover_query(
        self, q: np.ndarray, r: float, exclude: Optional[set] = None
    ) -> Optional[Tuple[int, float]]:
        """Algorithm 1: answer an (r, c)-ball-cover query.

        Returns ``(point_id, distance)`` for some point inside B(q, c·r), or
        ``None`` — correct with constant probability by Lemma 5.
        ``exclude`` skips the given point ids, e.g. the query's own row when
        probing for a near-duplicate of an indexed item.
        """
        self._require_built()
        q = self._validate_query(q, k=1)
        if r <= 0:
            raise ValueError(f"radius r must be positive, got {r}")
        budget = self.candidate_budget(1)
        # The closest `budget` collisions inside the projected ball, like
        # every other probe: the flat tree masks tombstones itself, and
        # widening the limit by len(exclude) leaves `budget` after dropping them.
        skip = np.fromiter(exclude or (), dtype=np.int64)
        _, ids, _, _ = self.flat_tree.batch_range(
            np.atleast_2d(self.projection.project(q)),
            self.solved.t * r,
            limits=[budget + skip.size],
        )
        ids = ids[~np.isin(ids, skip)][:budget]
        if ids.size == 0:
            return None
        true_dists = point_to_points_distances(q, self.data[ids])
        best = int(np.argmin(true_dists))
        best_id, best_dist = int(ids[best]), float(true_dists[best])
        if ids.size >= budget:
            # ≥ βn + 1 collisions: E2 guarantees one of them lies in B(q, cr).
            return best_id, best_dist
        if best_dist <= self.params.c * r:
            return best_id, best_dist
        return None

    # ------------------------------------------------------------------
    # the (r, c)-ball range query
    # ------------------------------------------------------------------

    def _run_range(self, queries: np.ndarray, spec: Range) -> RangeResult:
        """(r, c)-ball range search through one projected range probe.

        Algorithm 1's machinery, generalised from "one witness" to "the
        whole ball" — with the c slack spent on the *probe* rather than
        on a constant-probability guarantee: candidates are the points
        whose projected distance is within t·c·r (the PM-tree range
        query, capped at a budget of ⌈βn⌉ collisions plus the expected
        ball population n·F(c·r), both sized on the *live* n like kNN's
        budget); each is verified in the original space and reported iff
        its true distance is at most c·r.  A point at
        true distance s ≤ r has projected distance s·√(χ²_m), so it
        collides with probability CDF_{χ²(m)}(t²c²/ (s/r)²) ≥
        CDF_{χ²(m)}(t²c²) — e.g. ≈ 0.998 at the paper's defaults
        (m = 15, α1 = 1/e, c = 1.5), which is where the high recall on
        the exact ball B(q, r) comes from.  Nothing outside B(q, c·r) is
        ever reported, and the candidate budget keeps the probe sublinear
        whenever the query ball holds a vanishing fraction of the data.
        """
        c = spec.c if spec.c is not None else self.params.c
        solved = self.solved_for(spec.c)
        projected = np.atleast_2d(self.projection.project(queries))
        default_budget = range_candidate_budget(
            self.distance_distribution, self.nlive, solved.beta, c * spec.r
        )
        budget = spec.budget if spec.budget is not None else default_budget
        probe_radius = solved.t * c * spec.r
        # One flat traversal at t·c·r per query block, one gathered
        # verification kernel, then a per-query (true distance, id) sort.
        flat = self.flat_tree
        tree_work = _TreeWork(flat.height)
        num_queries = queries.shape[0]
        query_blocks: List[np.ndarray] = []
        id_blocks: List[np.ndarray] = []
        dist_blocks: List[np.ndarray] = []
        fetched = np.zeros(num_queries, dtype=np.int64)
        block = self._flat_query_block()
        for start in range(0, num_queries, block):
            stop = min(start + block, num_queries)
            lims, ids, _, stats = flat.batch_range(
                projected[start:stop],
                probe_radius,
                limits=np.full(stop - start, budget, dtype=np.int64),
                sort=False,
            )
            tree_work.add(stats)
            counts = np.diff(lims)
            fetched[start:stop] = counts
            if ids.size == 0:
                continue
            rep = start + np.repeat(np.arange(stop - start, dtype=np.int64), counts)
            true_dists = kernels.active().verify_distances(self.data, ids, queries, rep)
            self._c_verified.inc(ids.size)
            inside = true_dists <= c * spec.r
            query_blocks.append(rep[inside])
            id_blocks.append(ids[inside])
            dist_blocks.append(true_dists[inside])
        query_index = (
            np.concatenate(query_blocks) if query_blocks else np.empty(0, dtype=np.int64)
        )
        kept_ids = np.concatenate(id_blocks) if id_blocks else np.empty(0, dtype=np.int64)
        kept_dists = (
            np.concatenate(dist_blocks) if dist_blocks else np.empty(0, dtype=np.float64)
        )
        order = np.lexsort((kept_ids, kept_dists, query_index))
        query_index = query_index[order]
        returned = np.bincount(query_index, minlength=num_queries)
        lims_out = np.concatenate([[0], np.cumsum(returned)]).astype(np.int64)
        per_query = tuple(
            {
                "candidates": float(fetched[q]),
                "budget": float(budget),
                "returned": float(returned[q]),
            }
            for q in range(num_queries)
        )
        result = RangeResult(
            lims=lims_out,
            ids=kept_ids[order],
            distances=kept_dists[order],
            stats=aggregate_stats(per_query),
            per_query_stats=per_query,
        )
        self._publish_work(tree_work, result.stats, num_queries)
        return result

    def _estimates(
        self,
        queries: np.ndarray,
        q_sqnorm: np.ndarray,
        rows: np.ndarray,
        ids: np.ndarray,
        lims: np.ndarray,
    ) -> np.ndarray:
        """Norm-expansion estimates of d² for a query-grouped candidate
        pool: slice j (``lims[j]:lims[j+1]``) against query row ``rows[j]``.

        Each slice is first sorted by id in place (ids are distinct per
        query): the (candidates × d) gather then walks the dataset
        near-sequentially instead of at random.
        """
        keys = np.empty(ids.size, dtype=np.float64)
        bounds = lims.tolist()
        for query, lo, hi in zip(rows.tolist(), bounds[:-1], bounds[1:]):
            ids[lo:hi].sort()
            keys[lo:hi] = sq_distance_estimates(
                self.data, self.sqnorm, ids[lo:hi], queries[query], q_sqnorm[query]
            )
        return keys

    # ------------------------------------------------------------------
    # Algorithm 2: the (c, k)-ANN query
    # ------------------------------------------------------------------

    def _initial_radius(self, k: int, solved: SolvedParameters | None = None) -> float:
        return select_initial_radius(
            self.distance_distribution,
            n=self.nlive,
            beta=(solved or self.solved).beta,
            k=k,
            shrink=self.params.radius_shrink,
        )

    # ------------------------------------------------------------------
    # batch search (the vectorised hot path)
    # ------------------------------------------------------------------

    #: Hard cap on queries per flat-traversal block (a block shares every
    #: frontier and candidate buffer across its queries).
    _BATCH_QUERY_BLOCK = 1024
    #: Cap on (block queries × n) member-level entries one level-synchronous
    #: sweep may materialise before the budget cut — the worst case is every
    #: leaf member surviving the filters, so this bounds the sweep's
    #: temporaries to ~64 MB of int64 just like the old blocked-GEMM path.
    _BATCH_SWEEP_ENTRIES = 8_000_000

    def _flat_query_block(self) -> int:
        """Queries per sweep: the block cap, shrunk so block × n stays
        within the sweep-entry bound on large datasets."""
        by_memory = self._BATCH_SWEEP_ENTRIES // max(1, self.n)
        return max(1, min(self._BATCH_QUERY_BLOCK, by_memory))

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Batched Algorithm 2 through the flat PM-tree traversal.

        Per-batch (not per-query) work replaces the per-query tree walks:

        * all Q queries are projected in **one GEMM** against the direction
          matrix instead of Q separate vector products;
        * every radius-enlarging round runs **one** level-synchronous
          traversal of the flattened tree for all still-active queries —
          each round fetches the fresh annulus (the closest unseen points
          inside the enlarged projected ball), which is the *same*
          candidate set a per-query walk of any PM-tree over these points
          produces, because that set is defined by projected distances
          alone;
        * the initial radius r_min — a quantile of the shared F(x) sample,
          identical for every query at fixed (n, β, k) — is solved once,
          and the whole radius ladder is laid out up front;
        * a round's fresh candidates are *estimated* in the original
          space (one gather + GEMV per query row) and verified exactly
          only where a termination test or the final top-k cannot be
          decided from the estimates (:meth:`_flat_probe_block`).

        Results are exactly those of a per-query probe of the pointer
        PM-tree oracle (``tests/oracles/recursive_probe.py``).  The spec's
        runtime knobs are honoured here: ``budget`` replaces the ⌈βn⌉ + k
        cap, and ``c`` swaps in a re-solved (t, β) pair.
        """
        k = spec.k
        c = spec.c if spec.c is not None else self.params.c
        solved = self.solved_for(spec.c)
        budget = (
            spec.budget if spec.budget is not None else self.candidate_budget(k, solved)
        )
        budget = max(budget, k)  # can't answer k neighbours on fewer candidates
        initial_radius = self._initial_radius(k, solved)
        projected = np.atleast_2d(self.projection.project(queries))  # one GEMM
        flat = self.flat_tree
        results = []
        tree_work = _TreeWork(flat.height)
        block = self._flat_query_block()
        for start in range(0, queries.shape[0], block):
            results.extend(
                self._flat_probe_block(
                    queries[start : start + block],
                    projected[start : start + block],
                    k,
                    budget,
                    initial_radius,
                    c,
                    solved.t,
                    flat,
                    tree_work,
                )
            )
        batch = BatchResult.from_queries(results, k=k)
        self._publish_work(tree_work, batch.stats, queries.shape[0])
        return batch

    def _flat_probe_block(
        self,
        queries: np.ndarray,
        projected: np.ndarray,
        k: int,
        budget: int,
        initial_radius: float,
        c: float,
        t: float,
        flat: FlatPMTree,
        tree_work: "_TreeWork",
    ) -> List[QueryResult]:
        """One query block through the batched radius-enlarging loop.

        Algorithm 2's round structure and termination tests, advancing
        *every* active query of the block per round with one flat
        traversal.  A candidate's original-space distance is first
        *estimated*, ``‖x‖² − 2·x·q + ‖q‖²`` from the stored ``sqnorm``
        (one gather + GEMV per row, within ``tol`` of the exact kernel's
        d²: :func:`~repro.kernels.fast.expansion_tol`), and computed
        exactly with ``verify_distances`` only where a decision needs it:
        termination test 1 verifies the rows within ``tol`` of (c·r)², and
        the final top-k the rows within 2·tol of the k-th estimate — the k
        answers among them.  Every decision is the exact kernel's, so ids,
        distances, ties and stats are those of verifying every candidate.
        """
        num_queries = queries.shape[0]
        trace = current_trace()
        schedule = radius_schedule(initial_radius, c, self.params.max_iterations)
        seen = np.zeros(num_queries, dtype=np.int64)
        rounds = np.zeros(num_queries, dtype=np.int64)
        final_radius = np.full(num_queries, schedule[-1])
        active = np.ones(num_queries, dtype=bool)
        q_sqnorm = _row_sqnorms(queries)
        scale = float(self.sqnorm.max()) + q_sqnorm
        tol = expansion_tol(self.d, scale)
        verify = kernels.active().verify_distances
        pool: List[_Round] = []
        previous_fetch: Optional[float] = None
        for round_index in range(self.params.max_iterations):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            r = float(schedule[round_index])
            rounds[idx] += 1
            self._c_rounds.inc()
            # Termination test 1 (line 4): k verified points within c·r.
            if pool:
                bound = c * r
                square = bound * bound
                margin = expansion_tol(self.d, scale + square)
                within = np.zeros(num_queries, dtype=np.float64)
                for part in pool:
                    row_margin = margin[part.owner]
                    hit = part.keys <= square - row_margin
                    band = ~hit & (part.keys <= square + row_margin)
                    if part.exact is not None:
                        known = ~np.isnan(part.exact)
                        hit = np.where(known, part.exact <= bound, hit)
                        band &= ~known
                    band = np.flatnonzero(band & active[part.owner])
                    if band.size:
                        if part.exact is None:
                            part.exact = np.full(part.ids.size, np.nan)
                        part.exact[band] = verify(
                            self.data, part.ids[band], queries, part.owner[band]
                        )
                        tree_work.rescored += band.size
                        hit[band] = part.exact[band] <= bound
                    within += np.bincount(part.owner, weights=hit, minlength=num_queries)
                done = idx[within[idx] >= k]
                final_radius[done] = r
                active[done] = False
                idx = idx[within[idx] < k]
                if idx.size == 0:
                    break
            limits = np.maximum(budget - seen[idx], 0)
            traversal_span = (
                trace.span(
                    "tree_traversal",
                    round=round_index,
                    active_queries=int(idx.size),
                    levels=flat.height,
                )
                if trace is not None
                else nullcontext()
            )
            with traversal_span:
                lims, ids, _, stats = flat.batch_range(
                    projected[idx], t * r, limits=limits, lower=previous_fetch, sort=False
                )
            tree_work.add(stats)
            counts = np.diff(lims)
            if ids.size:
                verify_span = (
                    trace.span("verification", round=round_index, candidates=int(ids.size))
                    if trace is not None
                    else nullcontext()
                )
                with verify_span:
                    keys = self._estimates(queries, q_sqnorm, idx, ids, lims)
                self._c_verified.inc(ids.size)
                pool.append(_Round(idx, lims, ids, keys, num_queries))
                seen[idx] += counts
            # Termination test 2 (line 9): candidate budget exhausted.
            exhausted = idx[seen[idx] >= budget]
            final_radius[exhausted] = r
            active[exhausted] = False
            previous_fetch = t * r
        # The k best by estimate, plus the band at the k-th, get an exact
        # distance (one pooled kernel call); the cut is then exact.
        listed_ids: List[np.ndarray] = []
        listed_exact: List[np.ndarray] = []
        for q in range(num_queries):
            ids, keys, exact = _Round.rows_of(pool, q)
            below, above = limit_band(keys, float(tol[q]), k)
            listed = np.flatnonzero(keys <= above)
            near = keys.take(listed) >= below
            exact = np.full(listed.size, np.nan) if exact is None else exact.take(listed)
            if np.count_nonzero(near) > k - np.count_nonzero(~near):  # the band decides
                tree_work.rescored += int(np.count_nonzero(np.isnan(exact[near])))
            listed_ids.append(ids.take(listed))
            listed_exact.append(exact)
        fresh = [np.flatnonzero(np.isnan(exact)) for exact in listed_exact]
        sizes = [rows.size for rows in fresh]
        if sum(sizes):
            dists = verify(
                self.data,
                np.concatenate([ids[rows] for ids, rows in zip(listed_ids, fresh)]),
                queries,
                np.repeat(np.arange(num_queries), sizes),
            )
            for exact, rows, part in zip(listed_exact, fresh, np.split(dists, np.cumsum(sizes))):
                exact[rows] = part
        results: List[QueryResult] = []
        for q in range(num_queries):
            q_ids, q_dists = listed_ids[q], listed_exact[q]
            best = np.flatnonzero(closest_mask(q_dists, q_ids, k))
            best = best[np.lexsort((q_ids[best], q_dists[best]))]
            results.append(
                QueryResult(
                    ids=q_ids[best],
                    distances=q_dists[best],
                    stats={
                        "candidates": float(seen[q]),
                        "rounds": float(rounds[q]),
                        "final_radius": float(final_radius[q]),
                    },
                )
            )
        return results

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    #: One n×d×m GEMM re-derives the projected matrix and one pass over the
    #: data the row norms, so archives leave them out; shared memory carries
    #: them (workers attach with no numeric work).
    _rederivable_arrays = ("projected", "sqnorm")
    #: ``PMLSHParams`` fields older archives carry: the traversal selector;
    #: the insert path's build/split choices (an archive whose tree was
    #: grown by inserts restores as the flat arrays it stored); the hash
    #: family switch and its sample size (an archive of the sampled family
    #: is refused, a dense one loads); and the F(x) sample size (the
    #: sample itself is stored).
    _RETIRED_PARAMS = ("traversal", "build_method", "split_promotion", "split_partition", "hash_family", "hash_sample_size", "radius_sample_pairs")

    def state_arrays(self):
        """The index as arrays: dataset, projected points, row norms, hash
        ``directions``, pivots, the F(x) sample behind r_min and the flat
        tree (:meth:`FlatPMTree.to_arrays`: the matrices queries prune
        against, so a restore traverses bit-identically); the parameter
        bundle is the JSON state."""
        flat = self.flat_tree
        arrays = {
            "data": self.data,
            "projected": self.projected,
            "sqnorm": self.sqnorm,
            "directions": self.projection.directions,
            "pivots": flat.pivots,
            "distance_samples": self.distance_distribution.samples,
            **flat.to_arrays(),
        }
        return arrays, asdict(self.params)

    @classmethod
    def from_state_arrays(cls, arrays, params) -> "PMLSH":
        """Restore over *arrays* as they are (already contiguous float64,
        so no coercion below copies): the flat tree — rows past its
        ``flat_leaf_ids`` are the unindexed tail — serves at once and the
        tree stays unmaterialised.  No ``projected`` / ``sqnorm`` (every
        archive) → re-project / recompute; no ``flat_*`` (legacy) → eager
        deterministic tree rebuild.  The retired parameters
        (``_RETIRED_PARAMS``) are dropped; any other key ``PMLSHParams``
        does not have, and an archive of the retired sampled hash family,
        raise :class:`~repro.persistence.SnapshotError`.
        """
        if "hash_sample_idx" in arrays:
            raise SnapshotError(
                "the archive's hash functions are the sampled projection family, "
                "which this library retired: re-fit the index from its data"
            )
        known = {field.name for field in fields(PMLSHParams)}
        unknown = sorted(set(params) - known - set(cls._RETIRED_PARAMS))
        if unknown:
            raise SnapshotError(
                f"unknown PM-LSH parameter {', '.join(map(repr, unknown))} — the "
                "archive was written by a newer release or edited by hand"
            )
        params = PMLSHParams(**{k: v for k, v in params.items() if k in known})
        index = cls(params=params, seed=0)
        index._set_data(arrays["data"])
        index.projection = GaussianProjection.from_directions(arrays["directions"])
        index.projected = (
            np.asarray(arrays["projected"], dtype=np.float64)
            if "projected" in arrays
            else index.projection.project(index.data)
        )
        index.sqnorm = (
            np.asarray(arrays["sqnorm"], dtype=np.float64)
            if "sqnorm" in arrays
            else _row_sqnorms(index.data)
        )
        pivots = np.asarray(arrays["pivots"], dtype=np.float64)
        if "flat_is_leaf" in arrays:
            index._flat = FlatPMTree.from_arrays(
                arrays,
                points=index.projected,
                pivots=pivots,
                use_rings=params.use_rings,
                use_parent_filter=params.use_parent_filter,
            )
        else:
            index._tree = index._build_tree(index.projected, pivots)
            index._flat = index._tree.flatten()
        index.distance_distribution = DistanceDistribution(arrays["distance_samples"])
        return index

    # ------------------------------------------------------------------
    # dynamic growth
    # ------------------------------------------------------------------

    def _add(self, new_points: np.ndarray) -> np.ndarray:
        """Incremental growth: project with the existing hash functions and
        append the rows to the flat tree's unindexed tail — or, when the
        tail would outgrow the indexed prefix (``_TAIL_FOLD_RATIO``),
        bulk-build one tree over everything with the same pivots.  The
        r_min distance distribution keeps serving (it drifts only as much
        as the data distribution does, which HV ≈ 1 keeps small).  Every
        n-dependent quantity (the ⌈βn⌉ + k candidate budget, r_min's target
        mass) is evaluated per query from the grown ``self.n``, so queries
        stay consistent after growth.  Nothing is assigned until every
        array is built: a failed add leaves the index as it was."""
        start = self.n
        data = np.vstack([self.data, new_points])
        projected = np.vstack([self.projected, self.projection.project(new_points)])
        sqnorm = np.concatenate([self.sqnorm, _row_sqnorms(data[start:])])
        if not self._fold_if_due(projected):
            self._flat.extend(projected)
        self.data, self.projected, self.sqnorm = data, projected, sqnorm
        return np.arange(start, data.shape[0], dtype=np.int64)

    def _fold_if_due(self, projected: np.ndarray) -> bool:
        """The one fold rule, which :meth:`_add` and :meth:`_compact` both
        run.  If the flat tree over *projected* would hold more than
        ``_TAIL_FOLD_RATIO`` tail rows per indexed row, build one tree over
        every row with the same pivots, mask the tombstones and install
        it.  Returns whether it folded."""
        indexed = self._flat.leaf_ids.size
        if not projected.shape[0] - indexed > _TAIL_FOLD_RATIO * indexed:
            return False
        tree = self._build_tree(projected, self._flat.pivots)
        flat = tree.flatten()
        flat.set_tombstones(self._tombstones.ids())
        self._tree, self._flat = tree, flat
        return True

    def _compact(self, live: np.ndarray) -> None:
        """Drop the dead rows and keep the draw: the projection, the pivots
        and the F(x) sample stay as they are.  ``data``, ``projected`` and
        ``sqnorm`` keep the rows *live*; the flat tree drops the other
        slots (:meth:`FlatPMTree.compacted`) and is not rebuilt; then the
        fold rule decides about the tail.  No answer changes, only ids:
        a candidate set is defined by projected distances alone, and the
        ⌈β·nlive⌉ + k budget and r_min already use the live n."""
        self._tree = None
        self.data = self.data[live]
        self.sqnorm = self.sqnorm[live]
        self.projected = self.projected[live]
        self._flat = self._flat.compacted(live, self.projected)
        self._fold_if_due(self.projected)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def estimated_distance(self, o1: np.ndarray, o2: np.ndarray) -> float:
        """Lemma 2's estimate of ‖o1, o2‖ from their projections."""
        self._require_built()
        p1 = self.projection.project(np.asarray(o1, dtype=np.float64))
        p2 = self.projection.project(np.asarray(o2, dtype=np.float64))
        return float(np.linalg.norm(p1 - p2) / np.sqrt(self.params.m))
