"""Flat structure-of-arrays PM-tree: the vectorized batched hot path.

The pointer :class:`~repro.pmtree.tree.PMTree` is the *bulk builder* —
the clustering and the structural validator operate on it — but
walking it one Python node at a time is the dominant cost of Algorithm
1/2 queries.  ``PMTree.flatten()`` packs the finished tree into this
module's :class:`FlatPMTree`: every routing entry's fields (routing-object
coordinates, covering radius, parent distance, hyper-ring intervals,
child pointer) live in contiguous NumPy arrays, nodes are numbered in
breadth-first order so each depth level is one contiguous id range, and
leaf membership is two flat arrays sliced per leaf.

The tree indexes a *prefix* of its point matrix.  Rows appended later
(:meth:`FlatPMTree.extend`) form an unindexed **tail**: point ids are
append-only, so the tail is always the contiguous suffix ``points[
leaf_ids.size:]``, and every query scores it with the same dense pass
that answers a widely covered leaf level.  A match is defined by its
projected distance alone, so a row answers the same from the tail as
from a leaf; the owner re-clusters (bulk build + ``flatten()``) when the
tail has grown enough to matter.

Traversal is *level-synchronous and batched*: one call answers a whole
``(Q, m)`` query block by expanding the entire frontier — every surviving
``(query, node)`` pair — one level per step.  The Eq. 5 pruning battery
(parent-distance test, hyper-ring tests, sphere test) is applied to the
whole frontier as array masks, so the per-node Python recursion of the
pointer tree disappears; candidate ids and distances accumulate into
buffers shared across the queries of the batch.

The mask and distance arithmetic lives in :mod:`repro.kernels`.  An
uncapped traversal visits exactly the nodes the pointer tree's
``range_query`` visits and computes exactly the same distances with the
same float64 kernels, so results — and the node-access /
distance-computation counters — are identical to the pointer tree's
(``tests/pmtree/test_flatten.py`` asserts both).  That is one of two ways
the leaf level is answered: when the leaves the inner levels reached
already hold a large share of the indexed points — Algorithm 2's first
round at the default β always does — gathering and filtering member by
member is pure overhead, and the leaf level instead scores the whole
reached slot range as blocked GEMMs (see ``FlatPMTree._dense_leaves``).
Those scores come from a float32 copy of the slot rows (``leaf_points``)
and are estimates of the squared distance with a proven error
bound; the exact kernel runs — over the float64 ``points`` — only where
a score is too close to a boundary to decide: ``radius``, ``lower``, or
the L-th place of the limit cut (:meth:`FlatPMTree._cut`, the one
canonical cut every chunk of matches goes through).  So every decision
is the exact kernel's, and most matches never get an exact distance:
``batch_range(sort=False)`` returns the match *set* and no distances,
``sort=True`` computes them for the output rows only.  Results are the
same either way and only the counters (``dist_comps``, ``rescored``)
say which side ran.  The dense side emits every member of the slot
range whose exact distance is within ``radius``; the per-pair side
emits those that also pass the Eq. 5 filters.  In exact arithmetic the
filters are implied by the distance test; in floating point each
differences two separately rounded distances, so every filter test
carries a relative ulp slack (:func:`~repro.kernels.fast.filter_slack`)
that covers that rounding — copies of an indexed point pass at
``radius`` 0.  What the slack does not cover is the pivot-distance
matrix's own error: ``PMTree`` derives it by the norm expansion, which
loses digits far from the origin, where a member within a few ulps of a
ring boundary can still be dropped by the per-pair side and kept by the
dense one.  Dense ⊇ per-pair always, and both ⊆ the true ball
(``tests/pmtree/test_dense_pass.py`` pins the chain; docs/kernels.md,
"The one exception").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels as _kernels
from repro.kernels.fast import expansion_tol, filter_slack, limit_band


@dataclass(frozen=True)
class TraversalStats:
    """Per-query tree work of one :meth:`FlatPMTree.batch_range` call.

    ``nodes`` and ``dist_comps`` are ``(Q,)`` arrays — node accesses and
    point/centre distance evaluations attributed to each query — and
    ``level_visits`` is a ``(height,)`` array of (query, node) frontier
    pairs expanded per depth level, summed over the batch.

    Both leaf-level strategies count the same frontier: ``nodes`` and
    ``level_visits`` are the inner nodes plus the leaves the inner levels
    reached, whichever way their members are then scored.  ``dist_comps``
    charges what was scored — on the traversal side the members that
    survive the Eq. 5 filters, on the dense side (see
    ``_DENSE_COVERAGE``) every live member of the slot range the pass
    streams, once per query; the live rows of the unindexed tail are
    charged to every query the same way.
    """

    nodes: np.ndarray
    dist_comps: np.ndarray
    level_visits: np.ndarray
    #: ``(Q,)`` exact projected distances computed to settle a decision
    #: the dense pass's estimates could not: a member within ``tol`` of
    #: ``radius`` or ``lower``, or the band around a query's limit-th
    #: estimate.  Distances computed only to report them (``sort=True``)
    #: are not counted.
    rescored: np.ndarray


class _Matches:
    """The match chunks of one :meth:`FlatPMTree.batch_range` call, with
    what its one canonical cut needs to decide on them.

    Per chunk: query row, point id, a squared-distance ``key`` (the dense
    pass's estimate, or ``fl(d²)`` of an exact distance) and the exact
    projected distance where one was computed (NaN otherwise; ``None``
    for a chunk with none).  Per query: ``tol`` bounds ``|key − d²|``
    over all its chunks (0 while every chunk is exact), and ``rescored``
    counts its decision re-scores.
    """

    def __init__(self, num_queries: int) -> None:
        self.q: List[np.ndarray] = []
        self.ids: List[np.ndarray] = []
        self.keys: List[np.ndarray] = []
        self.exact: List[Optional[np.ndarray]] = []
        self.tol = np.zeros(num_queries, dtype=np.float64)
        self.rescored = np.zeros(num_queries, dtype=np.int64)

    def add(self, q: np.ndarray, ids: np.ndarray, keys: np.ndarray, exact) -> None:
        self.q.append(q)
        self.ids.append(ids)
        self.keys.append(keys)
        self.exact.append(exact)

    def pooled_keys(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, exact)`` of every chunk, in chunk order."""
        exact = [
            np.full(ids.size, np.nan) if chunk is None else chunk
            for ids, chunk in zip(self.ids, self.exact)
        ]
        return np.concatenate(self.keys), np.concatenate(exact)


#: The leaf level scores the whole reached slot range as blocked GEMMs,
#: instead of gathering per (query, member) pair, when the reached leaves
#: hold at least this share of ``(rows + _DENSE_LOAD_ROWS) × slots``.
#: Streaming a slot costs far less than gathering a pair, but the exact
#: re-score of the survivors is common to both sides and the Eq. 5 parent
#: filter already drops most pairs cheaply, so the measured break-even
#: sits at 2–3 % coverage for wide blocks.  ``tools/crossover.py`` → the
#: table in docs/tuning.md; not a knob.
_DENSE_COVERAGE = 0.02

#: Reading the slot range once is memory-bound and shared by a row block:
#: it costs what scoring ~10 more query rows would, which is why a
#: one-row call breaks even at ~22 % coverage and a 32-row call at ~3 %.
_DENSE_LOAD_ROWS = 10.0

#: Bytes of scores per dense block: 2^20 float32 (rows × columns) entries.
_DENSE_BLOCK_BYTES = 1 << 22

#: The dtype of ``leaf_points`` / ``leaf_sqnorm``, which only the dense
#: pass reads: float32 halves the bytes it streams, and its error is
#: inside ``expansion_tol`` for that dtype (docs/kernels.md, "The band
#: contract").  Exact distances always read the float64 ``points``.
_SCORE_DTYPE = np.float32


def _score_rows(points: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``points[ids]`` and their squared norms as ``_SCORE_DTYPE`` copies,
    gathered in blocks so no float64 ``len(ids) × m`` temporary exists.
    The norms are summed in float64, then rounded once."""
    rows = np.empty((ids.size, points.shape[1]), dtype=_SCORE_DTYPE)
    sqnorm = np.empty(ids.size, dtype=_SCORE_DTYPE)
    step = max(1, _DENSE_BLOCK_BYTES // (8 * max(1, points.shape[1])))
    for lo in range(0, ids.size, step):
        block = points[ids[lo : lo + step]]
        rows[lo : lo + step] = block
        sqnorm[lo : lo + step] = np.einsum("ij,ij->i", block, block)
    if not np.isfinite(sqnorm).all():
        raise ValueError("projected points exceed the float32 range of the dense pass")
    return rows, sqnorm


def _round_out(bounds: np.ndarray, toward: float) -> np.ndarray:
    """Float64 score *bounds* as ``_SCORE_DTYPE``, each rounded toward
    *toward* (±inf): a float32 score passes the rounded bound whenever it
    passes the float64 one (at worst one more float32 value does, and it
    lands in a band)."""
    with np.errstate(over="ignore"):
        rounded = bounds.astype(_SCORE_DTYPE)
    off = rounded < bounds if toward > 0 else rounded > bounds
    return np.where(off, np.nextafter(rounded, _SCORE_DTYPE(toward)), rounded)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[s, s + c)`` index ranges: the gather backbone of the
    frontier expansion (children of every frontier node in one array)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + np.arange(total, dtype=np.int64) - offsets


class FlatPMTree:
    """Read-only structure-of-arrays snapshot of a built PM-tree.

    Construct via :meth:`from_tree` (or ``PMTree.flatten()``).  Node ids
    are breadth-first, the root is node 0, and ``levels[d]`` is the
    ``[lo, hi)`` node-id range of depth d.  For an inner node ``v``,
    ``span[v]`` slices the ``entry_*`` arrays; for a leaf it slices
    ``leaf_ids`` / ``leaf_pd``.

    The snapshot *references* its point matrix rather than copying it.
    ``leaf_ids`` is a permutation of the indexed prefix ``0 ..
    leaf_ids.size``; ``points`` may hold more rows than that — the
    unindexed tail, grown in place by :meth:`extend` — and the per-slot
    arrays (``slot_ids``, ``leaf_points``, ``leaf_sqnorm``,
    ``leaf_alive``) cover both: leaf slots first, then one slot per tail
    row in id order.
    """

    def __init__(
        self,
        *,
        points: np.ndarray,
        pivots: np.ndarray,
        pivot_dists: np.ndarray,
        use_rings: bool,
        use_parent_filter: bool,
        is_leaf: np.ndarray,
        span_start: np.ndarray,
        span_end: np.ndarray,
        levels: List[Tuple[int, int]],
        entry_center: np.ndarray,
        entry_radius: np.ndarray,
        entry_pd: np.ndarray,
        entry_hr_min: np.ndarray,
        entry_hr_max: np.ndarray,
        entry_child: np.ndarray,
        leaf_ids: np.ndarray,
        leaf_pd: np.ndarray,
    ) -> None:
        self.points = points
        self.pivots = pivots
        self.pivot_dists = pivot_dists
        self.num_pivots = int(pivots.shape[0])
        self.use_rings = use_rings
        self.use_parent_filter = use_parent_filter
        self.is_leaf = is_leaf
        self.span_start = span_start
        self.span_end = span_end
        self.levels = levels
        self.entry_center = entry_center
        self.entry_radius = entry_radius
        self.entry_pd = entry_pd
        self.entry_hr_min = entry_hr_min
        self.entry_hr_max = entry_hr_max
        self.entry_child = entry_child
        self.leaf_ids = leaf_ids
        self.leaf_pd = leaf_pd
        #: point id per slot: the leaf members in traversal order, then the
        #: unindexed tail rows (``leaf_ids`` itself while there is no tail).
        tail = np.arange(leaf_ids.size, points.shape[0], dtype=np.int64)
        self.slot_ids = np.concatenate([leaf_ids, tail]) if tail.size else leaf_ids
        # Points re-packed in slot order, as float32, and ‖p‖² per slot
        # (the constant term of the dense scores): the one copy the dense
        # pass streams.  Nothing exact reads it — every distance is
        # computed from the float64 ``points[slot_ids[…]]``, so distances
        # are bit-identical to the pointer tree's.
        self.leaf_points, self.leaf_sqnorm = _score_rows(points, self.slot_ids)
        #: one contiguous per-pivot column, so the staged ring filter reads
        #: sequential memory per pivot (only built when the filter can run).
        self.leaf_ring_cols = (
            [
                np.ascontiguousarray(pivot_dists[leaf_ids, pivot])
                for pivot in range(self.num_pivots)
            ]
            if use_rings and self.num_pivots
            else []
        )
        #: aggregate counters mirroring ``PMTree.distance_computations`` /
        #: ``PMTree.node_accesses`` (summed over batches since last reset)
        self.distance_computations = 0
        self.node_accesses = 0
        #: per-slot liveness mask (parallel to ``slot_ids``), or None
        #: when no point is tombstoned.  Installed by :meth:`set_tombstones`;
        #: dead members drop out of every traversal before any distance
        #: computation or candidate-limit cut.
        self.leaf_alive: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(cls, tree) -> "FlatPMTree":
        """Pack a built :class:`~repro.pmtree.tree.PMTree` into flat arrays."""
        if tree.root is None:
            raise ValueError("cannot flatten an empty PM-tree")
        # Breadth-first node layout: depth levels become contiguous ranges.
        bfs_levels: List[list] = [[tree.root]]
        while True:
            nxt = [
                entry.child
                for node in bfs_levels[-1]
                if not node.is_leaf
                for entry in node.entries
            ]
            if not nxt:
                break
            bfs_levels.append(nxt)
        bfs = [node for level in bfs_levels for node in level]
        node_index = {id(node): i for i, node in enumerate(bfs)}
        levels: List[Tuple[int, int]] = []
        lo = 0
        for level in bfs_levels:
            levels.append((lo, lo + len(level)))
            lo += len(level)

        num_nodes = len(bfs)
        m = tree.points.shape[1]
        s = tree.num_pivots
        is_leaf = np.asarray([node.is_leaf for node in bfs], dtype=bool)
        span_start = np.zeros(num_nodes, dtype=np.int64)
        span_end = np.zeros(num_nodes, dtype=np.int64)

        centers: List[np.ndarray] = []
        radii: List[float] = []
        pds: List[float] = []
        hr_mins: List[np.ndarray] = []
        hr_maxs: List[np.ndarray] = []
        children: List[int] = []
        leaf_ids: List[int] = []
        leaf_pd: List[float] = []
        entry_cursor = 0
        leaf_cursor = 0
        for v, node in enumerate(bfs):
            if node.is_leaf:
                span_start[v] = leaf_cursor
                leaf_ids.extend(node.ids)
                leaf_pd.extend(node.parent_distances)
                leaf_cursor += len(node.ids)
                span_end[v] = leaf_cursor
            else:
                span_start[v] = entry_cursor
                for entry in node.entries:
                    centers.append(entry.center)
                    radii.append(entry.radius)
                    pds.append(entry.parent_distance)
                    hr_mins.append(entry.hr[:, 0])
                    hr_maxs.append(entry.hr[:, 1])
                    children.append(node_index[id(entry.child)])
                entry_cursor += len(node.entries)
                span_end[v] = entry_cursor

        if centers:
            entry_center = np.ascontiguousarray(np.stack(centers))
            entry_hr_min = np.ascontiguousarray(np.stack(hr_mins))
            entry_hr_max = np.ascontiguousarray(np.stack(hr_maxs))
        else:  # single-leaf tree
            entry_center = np.empty((0, m), dtype=np.float64)
            entry_hr_min = np.empty((0, s), dtype=np.float64)
            entry_hr_max = np.empty((0, s), dtype=np.float64)
        return cls(
            points=tree.points,
            pivots=tree.pivots,
            pivot_dists=tree.pivot_dists,
            use_rings=tree.use_rings,
            use_parent_filter=tree.use_parent_filter,
            is_leaf=is_leaf,
            span_start=span_start,
            span_end=span_end,
            levels=levels,
            entry_center=entry_center,
            entry_radius=np.asarray(radii, dtype=np.float64),
            entry_pd=np.asarray(pds, dtype=np.float64),
            entry_hr_min=entry_hr_min,
            entry_hr_max=entry_hr_max,
            entry_child=np.asarray(children, dtype=np.int64),
            leaf_ids=np.asarray(leaf_ids, dtype=np.int64),
            leaf_pd=np.asarray(leaf_pd, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    #: ``to_arrays`` keys that identify a serialized snapshot inside an
    #: ``.npz`` archive (``flat_is_leaf`` doubles as the presence marker).
    ARRAY_PREFIX = "flat_"

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Pure-array form of the snapshot for ``.npz`` persistence.

        Everything structural — node layout, routing-entry fields, leaf
        membership — plus the pivot-distance matrix, keyed with the
        ``flat_`` prefix so they coexist with an index's own archive
        entries.  The point matrix itself is *not* included: the owner
        re-derives it (PM-LSH re-projects the dataset with the stored
        directions) and passes it to :meth:`from_arrays`.
        """
        return {
            "flat_is_leaf": self.is_leaf,
            "flat_span_start": self.span_start,
            "flat_span_end": self.span_end,
            "flat_levels": np.asarray(self.levels, dtype=np.int64),
            "flat_entry_center": self.entry_center,
            "flat_entry_radius": self.entry_radius,
            "flat_entry_pd": self.entry_pd,
            "flat_entry_hr_min": self.entry_hr_min,
            "flat_entry_hr_max": self.entry_hr_max,
            "flat_entry_child": self.entry_child,
            "flat_leaf_ids": self.leaf_ids,
            "flat_leaf_pd": self.leaf_pd,
            "flat_pivot_dists": self.pivot_dists,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays,
        *,
        points: np.ndarray,
        pivots: np.ndarray,
        use_rings: bool,
        use_parent_filter: bool,
    ) -> "FlatPMTree":
        """Rebuild a snapshot from :meth:`to_arrays` output (or an open
        ``.npz`` archive holding those keys) — no pointer tree involved.

        *points* must be the same projected matrix the snapshot was taken
        over (same values, same order) — rows past the stored ``leaf_ids``
        are the unindexed tail; the stored pivot-distance matrix
        keeps the ring filters bit-identical to the saved tree's.
        """
        return cls(
            points=np.ascontiguousarray(np.asarray(points, dtype=np.float64)),
            pivots=np.asarray(pivots, dtype=np.float64),
            pivot_dists=np.asarray(arrays["flat_pivot_dists"], dtype=np.float64),
            use_rings=bool(use_rings),
            use_parent_filter=bool(use_parent_filter),
            is_leaf=np.asarray(arrays["flat_is_leaf"], dtype=bool),
            span_start=np.asarray(arrays["flat_span_start"], dtype=np.int64),
            span_end=np.asarray(arrays["flat_span_end"], dtype=np.int64),
            levels=[
                (int(lo), int(hi))
                for lo, hi in np.asarray(arrays["flat_levels"], dtype=np.int64)
            ],
            entry_center=np.asarray(arrays["flat_entry_center"], dtype=np.float64),
            entry_radius=np.asarray(arrays["flat_entry_radius"], dtype=np.float64),
            entry_pd=np.asarray(arrays["flat_entry_pd"], dtype=np.float64),
            entry_hr_min=np.asarray(arrays["flat_entry_hr_min"], dtype=np.float64),
            entry_hr_max=np.asarray(arrays["flat_entry_hr_max"], dtype=np.float64),
            entry_child=np.asarray(arrays["flat_entry_child"], dtype=np.int64),
            leaf_ids=np.asarray(arrays["flat_leaf_ids"], dtype=np.int64),
            leaf_pd=np.asarray(arrays["flat_leaf_pd"], dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.is_leaf.size)

    @property
    def height(self) -> int:
        return len(self.levels)

    def __len__(self) -> int:
        return int(self.slot_ids.size)

    @property
    def num_live(self) -> int:
        """Points (leaf members and tail rows) that are not tombstoned."""
        if self.leaf_alive is None:
            return int(self.slot_ids.size)
        return int(self.leaf_alive.sum())

    def extend(self, points: np.ndarray) -> None:
        """Adopt *points* — the current matrix plus appended rows — in place.

        The new rows join the unindexed tail (ids continue from
        ``len(self)``, alive); the tree arrays are untouched.  Every
        array is built before the first is assigned, so a failure leaves
        the snapshot as it was.
        """
        start = self.slot_ids.size
        fresh = np.arange(start, points.shape[0], dtype=np.int64)
        slot_ids = np.concatenate([self.slot_ids, fresh])
        rows, sqnorm = _score_rows(points, fresh)
        leaf_points = np.concatenate([self.leaf_points, rows])
        leaf_sqnorm = np.concatenate([self.leaf_sqnorm, sqnorm])
        leaf_alive = self.leaf_alive
        if leaf_alive is not None:
            leaf_alive = np.concatenate([leaf_alive, np.ones(fresh.size, dtype=bool)])
        self.points, self.slot_ids, self.leaf_alive = points, slot_ids, leaf_alive
        self.leaf_points, self.leaf_sqnorm = leaf_points, leaf_sqnorm

    def set_tombstones(self, dead_ids: np.ndarray) -> None:
        """Install the dead-id set; traversals skip those points.

        *dead_ids* are global point ids (the owner's tombstone array);
        passing an empty array clears the mask and restores the
        tombstone-free fast path.
        """
        dead = np.asarray(dead_ids, dtype=np.int64)
        self.leaf_alive = None if dead.size == 0 else ~np.isin(self.slot_ids, dead)

    def reset_counters(self) -> None:
        self.distance_computations = 0
        self.node_accesses = 0

    # ------------------------------------------------------------------
    # batched traversal
    # ------------------------------------------------------------------

    def query_pivot_distances(self, queries: np.ndarray) -> np.ndarray:
        """(Q, s) distances query → global pivots, with the same float64
        kernel the pointer tree uses per query."""
        if not self.num_pivots:
            return np.empty((queries.shape[0], 0), dtype=np.float64)
        diff = self.pivots[None, :, :] - queries[:, None, :]
        return np.sqrt(np.einsum("qij,qij->qi", diff, diff))

    def batch_range(
        self,
        queries: np.ndarray,
        radius: float,
        limits: Optional[np.ndarray] = None,
        lower: Optional[float] = None,
        sort: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], TraversalStats]:
        """Projected-space range query for every row of *queries* at once.

        Returns CSR-style ``(lims, ids, dists, stats)``: query i's matches
        are ``ids[lims[i]:lims[i+1]]`` with their projected distances,
        sorted by ``(distance, id)``.  The result set per query is exactly
        the recursive ``PMTree.range_query(q, radius)`` set of a tree over
        every row of ``points``, indexed or tail.

        ``limits`` (per-query) keeps only each query's *closest* ``limits[i]``
        matches — the capped candidate fetch of Algorithm 2, equal to the
        pointer tree's ``knn_within(q, k=limit, radius)`` set, with ties at
        the cut resolved canonically by ``(distance, id)``.  ``lower``
        drops matches with distance ≤ lower: the radius-enlarging loop
        fetches each round's *fresh annulus*, because every point inside
        the previous radius is already in its ``seen`` set.  ``sort=False``
        returns each query's match *set*, in no promised order, and
        ``dists=None`` — the probe loops use it because they re-rank
        candidates by original-space distance anyway, and most matches
        then never need an exact projected distance at all.

        One traversal serves the whole batch: the frontier holds every
        live ``(query, node)`` pair and advances one tree level per step,
        applying the Eq. 5 parent-distance / ring / sphere tests as masks
        over the packed entry arrays (:mod:`repro.kernels`).  The leaf
        level then takes one of two routes to the same matches, chosen
        from how much of ``rows × slots`` the reached leaves cover
        (``_DENSE_COVERAGE``): member-by-member Eq. 5 filters and gathered
        distances when the ball is small, one dense scoring pass over the
        reached slot range when it is not (:meth:`_dense_leaves`).  The
        unindexed tail, if any, always takes the dense pass — the leaf
        level's own when that runs up to the last leaf slot (the tail's
        slots follow on), one more otherwise — and its matches are pooled
        with the tree's before the one limit cut (:meth:`_cut`).
        """
        kernel = _kernels.active()
        queries = np.ascontiguousarray(np.atleast_2d(queries))
        num_queries = queries.shape[0]
        query_rings = (
            self.query_pivot_distances(queries)
            if self.use_rings and self.num_pivots
            else None
        )
        nodes = np.zeros(num_queries, dtype=np.int64)
        dist_comps = np.zeros(num_queries, dtype=np.int64)
        level_visits = np.zeros(self.height, dtype=np.int64)
        if limits is not None:
            limits = np.asarray(limits, dtype=np.int64)

        # Frontier: one row per live (query, node) pair.  pd = distance
        # from the query to the node's routing object (NaN at the root,
        # where no parent-distance filter applies).
        frontier_q = np.arange(num_queries, dtype=np.int64)
        frontier_node = np.zeros(num_queries, dtype=np.int64)
        frontier_pd = np.full(num_queries, np.nan)
        # Candidate buffers shared across all queries of the batch.
        matches = _Matches(num_queries)
        # Queries that have not scored the unindexed tail yet.
        owes_tail = np.full(num_queries, self.slot_ids.size > self.leaf_ids.size)

        for depth in range(self.height):
            if frontier_q.size == 0:
                break
            level_visits[depth] = frontier_q.size
            nodes += np.bincount(frontier_q, minlength=num_queries)
            leaf_mask = self.is_leaf[frontier_node]

            # ---- leaf rows: filter members, verify projected distance ----
            if np.any(leaf_mask):
                self._expand_leaves(
                    queries,
                    query_rings,
                    radius,
                    lower,
                    limits,
                    frontier_q[leaf_mask],
                    frontier_node[leaf_mask],
                    frontier_pd[leaf_mask],
                    dist_comps,
                    owes_tail,
                    matches,
                    kernel,
                )

            # ---- inner rows: prune children, descend survivors ----
            inner = ~leaf_mask
            if not np.any(inner):
                break
            frontier_q, frontier_node, frontier_pd = self._expand_inner(
                queries,
                query_rings,
                radius,
                frontier_q[inner],
                frontier_node[inner],
                frontier_pd[inner],
                dist_comps,
                kernel,
            )

        if owes_tail.any():  # no node to prune the tail by: every query scores it
            self._dense_leaves(
                queries, radius, lower, limits, np.flatnonzero(owes_tail),
                self.leaf_ids.size, self.slot_ids.size,
                dist_comps, matches, kernel,
            )

        lims, ids, dists = self._assemble(queries, matches, limits, sort, kernel)
        self.node_accesses += int(nodes.sum())
        self.distance_computations += int(dist_comps.sum())
        stats = TraversalStats(nodes, dist_comps, level_visits, matches.rescored)
        return lims, ids, dists, stats

    def _expand_leaves(
        self,
        queries: np.ndarray,
        query_rings: Optional[np.ndarray],
        radius: float,
        lower: Optional[float],
        limits: Optional[np.ndarray],
        lq: np.ndarray,
        lnode: np.ndarray,
        lpd: np.ndarray,
        dist_comps: np.ndarray,
        owes_tail: np.ndarray,
        matches: _Matches,
        kernel,
    ) -> None:
        starts = self.span_start[lnode]
        ends = self.span_end[lnode]
        counts = ends - starts
        pairs = int(counts.sum())
        if pairs == 0:
            return
        # The frontier is query-major: distinct queries are its run heads.
        # Breadth-first packing makes one level's leaves a contiguous slot
        # range, so [slot_lo, slot_hi) holds every reached member and no
        # member of a leaf on another level.
        rows_q = lq[np.flatnonzero(np.diff(lq, prepend=-1))]
        slot_lo, slot_hi = int(starts.min()), int(ends.max())
        streamed = (rows_q.size + _DENSE_LOAD_ROWS) * (slot_hi - slot_lo)
        if pairs >= _DENSE_COVERAGE * streamed:
            if slot_hi == self.leaf_ids.size:
                # The tail's slots follow the last leaf slot: one pass (one
                # pre-cut, one pool per row) scores both.
                slot_hi = self.slot_ids.size
                owes_tail[rows_q] = False
            self._dense_leaves(
                queries, radius, lower, limits, rows_q, slot_lo, slot_hi,
                dist_comps, matches, kernel,
            )
            return
        member = _concat_ranges(starts, counts)
        rep_q = np.repeat(lq, counts)
        rep_pd = np.repeat(lpd, counts) if self.use_parent_filter else None
        # Tombstoned members drop out first, before any filter or distance
        # computation — dead points never consume dist_comps or limits, so
        # the traversal behaves as if the tree never held them.
        if self.leaf_alive is not None:
            alive = self.leaf_alive[member]
            member, rep_q = member[alive], rep_q[alive]
            if rep_pd is not None:
                rep_pd = rep_pd[alive]
            if member.size == 0:
                return
        # Eq. 5 parent-distance + ring filters (fused in the kernel).
        keep = kernel.leaf_prune(
            member=member,
            rep_q=rep_q,
            rep_pd=rep_pd,
            leaf_pd=self.leaf_pd,
            ring_cols=self.leaf_ring_cols,
            query_rings=query_rings,
            radius=radius,
            use_parent_filter=self.use_parent_filter,
            dim=queries.shape[1],
        )
        if not np.any(keep):
            return
        surv_q = rep_q[keep]
        ids = self.leaf_ids[member[keep]]
        dists = kernel.pair_distances(self.points[ids], queries[surv_q])
        dist_comps += np.bincount(surv_q, minlength=dist_comps.size)
        inside = dists <= radius
        if lower is not None:
            inside &= dists > lower
        dists = dists[inside]
        matches.add(surv_q[inside], ids[inside], dists * dists, dists)

    def _dense_leaves(
        self,
        queries: np.ndarray,
        radius: float,
        lower: Optional[float],
        limits: Optional[np.ndarray],
        rows_q: np.ndarray,
        slot_lo: int,
        slot_hi: int,
        dist_comps: np.ndarray,
        matches: _Matches,
        kernel,
    ) -> None:
        """Slots ``[slot_lo, slot_hi)`` — a leaf level's reached range, or the
        unindexed tail — as blocked float32 GEMMs over ``leaf_points``.

        Produces the matches the per-pair path produces, for the queries
        *rows_q*, and computes an exact distance only where a decision
        needs one.  A score ``s = ‖p‖² − 2·q·p`` per (query, slot) — the
        squared distance less the row constant ``‖q‖²``, from the float32
        slot copy — is within ``tol`` of the exact kernel's d²
        (``expansion_tol`` at float32's eps: ``|s + ‖q‖² − d²| ≤ (m + 5)·
        eps/2·(‖p‖² + ‖q‖²)`` counting the two float32 conversions, and the
        kernel's own rounding, well inside 4·(m + 3)·eps over ``max‖p‖² +
        ‖q‖² + radius²``; docs/kernels.md).  So a slot scoring more than
        ``tol`` inside ``radius²`` (and outside ``lower²``) is a match, one
        scoring more than ``tol`` beyond is not, and only the slots in
        between are re-scored with ``pair_distances`` over the float64
        ``points`` and put to the per-pair side's ``≤ radius`` / ``> lower``
        tests.  Then, when a query holds more than its limit L, the one
        canonical cut (:meth:`_cut`) keeps what scores more than 2·tol
        below the L-th score and re-scores only the band around it.  What
        is emitted is decided by the exact kernel alone; the scores only
        choose what it must see.  Data far from the origin inflates
        ``tol`` until every slot is in a band — slower, never different.

        The Eq. 5 member filters are *not* run here: they are implied by
        the distance test up to their ulp slack (module docstring), so
        this route keeps every match the other does.
        """
        points = self.leaf_points[slot_lo:slot_hi]
        sqnorm = self.leaf_sqnorm[slot_lo:slot_hi]
        alive = None if self.leaf_alive is None else self.leaf_alive[slot_lo:slot_hi]
        span = slot_hi - slot_lo
        dist_comps[rows_q] += span if alive is None else int(alive.sum())
        block = queries[rows_q]
        q_sqnorm = np.einsum("ij,ij->i", block, block)
        r2 = radius * radius
        tol = expansion_tol(block.shape[1], float(sqnorm.max()) + q_sqnorm + r2, _SCORE_DTYPE)
        matches.tol[rows_q] = np.maximum(matches.tol[rows_q], tol)
        upper = r2 + tol - q_sqnorm
        inner = r2 - tol - q_sqnorm  # scores at or below: certainly inside
        floor = ceil = None
        if lower is not None:
            floor = _round_out(lower * lower - tol - q_sqnorm, -np.inf)
            ceil = lower * lower + tol - q_sqnorm  # above: certainly past lower
        row_limits = None
        if limits is not None:
            row_limits = limits[rows_q]
            upper[row_limits <= 0] = -np.inf  # the limit cut keeps nothing
        upper = _round_out(upper, np.inf)
        neg2q = (-2.0 * block).astype(_SCORE_DTYPE)
        num_rows = rows_q.size
        # Column blocks of every row at once: the slot range is read from
        # memory once per call however many rows share it.
        itemsize = np.dtype(_SCORE_DTYPE).itemsize
        width = min(span, max(1, _DENSE_BLOCK_BYTES // (itemsize * num_rows)))
        buffer = np.empty((num_rows, width), dtype=_SCORE_DTYPE)
        hit_slots: List[List[np.ndarray]] = [[] for _ in range(num_rows)]
        hit_scores: List[List[np.ndarray]] = [[] for _ in range(num_rows)]
        for lo in range(0, span, width):
            hi = min(lo + width, span)
            # ``.T`` is a view: BLAS reads the point rows transposed.
            scores = np.matmul(neg2q, points[lo:hi].T, out=buffer[:, : hi - lo])
            scores += sqnorm[lo:hi]
            hit = scores <= upper[:, None]
            if floor is not None:
                hit &= scores >= floor[:, None]
            if alive is not None:
                hit &= alive[lo:hi]
            for i in range(num_rows):
                slots = np.flatnonzero(hit[i])  # ascending leaf slot
                if slots.size:
                    hit_scores[i].append(scores[i, slots])
                    slots += lo
                    hit_slots[i].append(slots)
        # One pool over every row, so the exact re-scores and the limit cut
        # run once per call.  A row over its limit first drops what that
        # cut certainly drops — keys more than 2·tol above its L-th key
        # (``limit_band``) — which keeps the pool near L rows per query.
        # That is the cut's own decision only while no band row, which the
        # exact test may still remove, keys at or below that line (else
        # the L-th key could move), so a row with one stays whole.
        pool_rows: List[np.ndarray] = []
        pool_slots: List[np.ndarray] = []
        pool_score: List[np.ndarray] = []
        pool_band: List[np.ndarray] = []
        for i in range(num_rows):
            if not hit_slots[i]:
                continue
            slots = np.concatenate(hit_slots[i])
            score = np.concatenate(hit_scores[i]).astype(np.float64)
            band = score > inner[i]
            if ceil is not None:
                band |= score <= ceil[i]
            score += q_sqnorm[i]  # the key: an estimate of d² itself
            if row_limits is not None and score.size > row_limits[i]:
                _, above = limit_band(score, float(tol[i]), int(row_limits[i]))
                listed = score <= above
                if not (band.any() and np.any(band & listed)):
                    listed = np.flatnonzero(listed)
                    slots, score, band = slots.take(listed), score.take(listed), band.take(listed)
            pool_rows.append(np.full(slots.size, i, dtype=np.int64))
            pool_slots.append(slots)
            pool_score.append(score)
            pool_band.append(band)
        if not pool_rows:
            return
        owner = np.concatenate(pool_rows)
        ids = self.slot_ids.take(slot_lo + np.concatenate(pool_slots))
        score = np.concatenate(pool_score)
        exact = None
        settle = np.flatnonzero(np.concatenate(pool_band))
        if settle.size:
            settle_q = rows_q[owner[settle]]
            dists = kernel.pair_distances(self.points[ids[settle]], queries[settle_q])
            matches.rescored += np.bincount(settle_q, minlength=matches.rescored.size)
            inside = dists <= radius
            if lower is not None:
                inside &= dists > lower
            exact = np.full(ids.size, np.nan)
            exact[settle] = dists
            if not inside.all():
                kept = np.ones(ids.size, dtype=bool)
                kept[settle[~inside]] = False
                owner, ids, score, exact = owner[kept], ids[kept], score[kept], exact[kept]
        if row_limits is not None:
            counts = np.bincount(owner, minlength=num_rows)
            if np.any(counts > row_limits):
                lims = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
                keep, exact = self._cut(
                    queries, rows_q, ids, score, exact, lims, tol, row_limits,
                    matches.rescored, kernel,
                )
                kept = np.flatnonzero(keep)
                owner, ids, score = owner.take(kept), ids.take(kept), score.take(kept)
                exact = None if exact is None else exact.take(kept)
        matches.add(rows_q[owner], ids, score, exact)

    def _cut(
        self,
        queries: np.ndarray,
        group_rows: np.ndarray,
        ids: np.ndarray,
        keys: np.ndarray,
        exact: Optional[np.ndarray],
        lims: np.ndarray,
        tol: np.ndarray,
        limits: np.ndarray,
        rescored: np.ndarray,
        kernel,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The one canonical limit cut: keep mask over a grouped pool, and
        the pool's exact distances (allocated here if it needed some).

        Group g is ``lims[g]:lims[g+1]``, the matches of query row
        ``group_rows[g]``; each over its limit keeps its ``limits[g]``
        closest by ``(exact distance, id)``.  ``keys`` are within
        ``tol[g]`` of each exact d² — dense-pass estimates, or ``fl(d²)``
        of a known distance.  :func:`~repro.kernels.fast.limit_band`
        keeps what keys more than 2·tol below the L-th key and drops what
        keys more than 2·tol above; the band between is settled by exact
        distances — computed here (into ``exact``, NaN where unknown,
        ``None`` for none known) only when the band holds more rows than
        places left — and the
        ``budget_cut`` kernel.  A group whose distances are all exact
        (``tol`` 0: per-pair chunks only) is one band as a whole, so the
        kernel settles every such group in one call.
        """
        counts = np.diff(lims)
        capped = np.flatnonzero(counts > limits)
        keep = np.ones(ids.size, dtype=bool)
        whole = capped[tol[capped] == 0.0]
        bands = [_concat_ranges(lims[whole], counts[whole])]
        keep[bands[0]] = False
        owners = [group_rows[whole]]
        sizes = [counts[whole]]
        places = [limits[whole]]
        for g in capped[tol[capped] > 0.0]:
            lo, hi = int(lims[g]), int(lims[g + 1])
            below, above = limit_band(keys[lo:hi], float(tol[g]), int(limits[g]))
            listed = np.less_equal(keys[lo:hi], above, out=keep[lo:hi])
            near = lo + np.flatnonzero(listed & (keys[lo:hi] >= below))
            room = int(limits[g]) - (int(np.count_nonzero(listed)) - near.size)
            if near.size > room:
                keep[near] = False
                owners.append(group_rows[g : g + 1])
                bands.append(near)
                sizes.append(np.array([near.size]))
                places.append(np.array([room]))
            # else: as many places as rows in the band, nothing to decide
        sizes = np.concatenate(sizes).astype(np.int64)
        if sizes.size == 0:
            return keep, exact
        band = np.concatenate(bands)
        owner = np.repeat(np.concatenate(owners).astype(np.int64), sizes)
        if exact is None:
            exact = np.full(ids.size, np.nan)
        fresh = np.flatnonzero(np.isnan(exact[band]))
        if fresh.size:
            where = band[fresh]
            exact[where] = kernel.pair_distances(self.points[ids[where]], queries[owner[fresh]])
            rescored += np.bincount(owner[fresh], minlength=rescored.size)
        chosen = kernel.budget_cut(
            np.repeat(np.arange(sizes.size, dtype=np.int64), sizes),
            ids[band],
            exact[band],
            sizes,
            np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
            np.concatenate(places).astype(np.int64),
        )
        keep[band if chosen is None else band[chosen]] = True
        return keep, exact

    def _expand_inner(
        self,
        queries: np.ndarray,
        query_rings: Optional[np.ndarray],
        radius: float,
        iq: np.ndarray,
        inode: np.ndarray,
        ipd: np.ndarray,
        dist_comps: np.ndarray,
        kernel,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = self.span_start[inode]
        counts = self.span_end[inode] - starts
        eidx = _concat_ranges(starts, counts)
        rep_q = np.repeat(iq, counts)
        rep_pd = np.repeat(ipd, counts) if self.use_parent_filter else None
        # Eq. 5 parent-distance + hyper-ring interval tests (fused in the
        # kernel); survivors owe a centre distance and the sphere test.
        keep = kernel.inner_prune(
            eidx=eidx,
            rep_q=rep_q,
            rep_pd=rep_pd,
            entry_pd=self.entry_pd,
            entry_radius=self.entry_radius,
            hr_min=self.entry_hr_min,
            hr_max=self.entry_hr_max,
            query_rings=query_rings,
            radius=radius,
            use_parent_filter=self.use_parent_filter,
            dim=queries.shape[1],
        )
        cand = np.flatnonzero(keep)
        if cand.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        cand_e = eidx[cand]
        cand_q = rep_q[cand]
        centers = self.entry_center[cand_e]  # fancy index: already a copy
        dists = kernel.pair_distances(centers, queries[cand_q])
        dist_comps += np.bincount(cand_q, minlength=dist_comps.size)
        # The sphere test, with the filters' ulp slack.
        reach = self.entry_radius[cand_e]
        u = filter_slack(queries.shape[1])
        surviving = dists - reach <= radius + u * (dists + reach + radius)
        return (
            cand_q[surviving],
            self.entry_child[cand_e[surviving]],
            dists[surviving],
        )

    def _assemble(
        self,
        queries: np.ndarray,
        matches: _Matches,
        limits: Optional[np.ndarray],
        sort: bool,
        kernel,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Group the pooled matches by query, cut each query still over its
        limit (:meth:`_cut` — a query the dense pass already cut in one
        chunk is not), and, for ``sort``, compute the exact distances the
        output still lacks and order each group by ``(distance, id)``.

        Frontier expansion is query-major, so each pooled chunk arrives
        already grouped by query — and a balanced tree produces exactly
        one leaf-level chunk — which makes grouping free in the common
        case; a stable argsort backstops lopsided trees and a tail scored
        in a pass of its own.
        """
        num_queries = matches.tol.size
        if not matches.q:
            empty = np.empty(0, dtype=np.float64) if sort else None
            return np.zeros(num_queries + 1, dtype=np.int64), np.empty(0, dtype=np.int64), empty
        q = np.concatenate(matches.q)
        ids = np.concatenate(matches.ids)
        order = None
        if len(matches.q) > 1 and np.any(np.diff(q) < 0):
            order = np.argsort(q, kind="stable")
            q, ids = q[order], ids[order]
        counts = np.bincount(q, minlength=num_queries)
        lims = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        capped = limits is not None and bool(np.any(counts > limits))
        if not (capped or sort):
            return lims, ids, None
        keys, exact = matches.pooled_keys()
        if order is not None:
            keys, exact = keys[order], exact[order]
        if capped:
            keep, exact = self._cut(
                queries, np.arange(num_queries), ids, keys, exact, lims,
                matches.tol, limits, matches.rescored, kernel,
            )
            kept = np.flatnonzero(keep)
            q, ids, exact = q.take(kept), ids.take(kept), exact.take(kept)
            counts = np.bincount(q, minlength=num_queries)
            lims = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        if not sort:
            return lims, ids, None
        unknown = np.flatnonzero(np.isnan(exact))
        if unknown.size:  # reported, not decided on: not a re-score
            exact[unknown] = kernel.pair_distances(self.points[ids[unknown]], queries[q[unknown]])
        order = np.lexsort((ids, exact, q))
        return lims, ids[order], exact[order]

    # ------------------------------------------------------------------
    # batched exact kNN in the indexed (projected) space
    # ------------------------------------------------------------------

    def batch_knn(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k nearest indexed points per query row, via the tree.

        Radius-doubling over :meth:`batch_range` with a limit of k: start
        from a density guess, re-probe the queries whose ball holds fewer
        than k points at twice the radius; a finished query's limit cut
        is its k best by ``(distance, id)`` — the same canonical tie order
        as the exact brute-force oracle — and only those k (and the band
        at the k-th) get an exact distance.  This is the traversal behind
        PM-LSH's closest-pair self-join (each point's projected
        neighbourhood).
        """
        queries = np.ascontiguousarray(np.atleast_2d(queries))
        num_queries = queries.shape[0]
        n = self.num_live  # dead members never match, so k must fit the live set
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        out_ids = np.empty((num_queries, k), dtype=np.int64)
        out_dists = np.empty((num_queries, k), dtype=np.float64)
        active = np.arange(num_queries, dtype=np.int64)
        radius = self._knn_seed_radius(k)
        while active.size:
            lims, ids, dists, _ = self.batch_range(
                queries[active], radius, limits=np.full(active.size, k)
            )
            done = np.diff(lims) >= k
            if np.any(done):
                take = _concat_ranges(
                    lims[:-1][done], np.full(int(done.sum()), k, dtype=np.int64)
                )
                rows = active[done]
                out_ids[rows] = ids[take].reshape(-1, k)
                out_dists[rows] = dists[take].reshape(-1, k)
            active = active[~done]
            radius *= 2.0
        return out_ids, out_dists

    def _knn_seed_radius(self, k: int) -> float:
        """Initial probe radius: scale the root covering radius by the
        expected k-ball volume fraction (doubling corrects any undershoot)."""
        if self.entry_radius.size == 0:
            return 1.0
        cover = float(self.entry_radius.max())
        if cover <= 0.0:
            return float(np.finfo(np.float64).tiny) * 1e10
        m = self.points.shape[1]
        fraction = (k / max(1, len(self))) ** (1.0 / max(1, m))
        return max(cover * fraction, cover * 1e-6)
