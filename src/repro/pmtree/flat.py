"""Flat structure-of-arrays PM-tree: the one traversal, batched.

:meth:`~repro.pmtree.tree.PMTree.build` emits the tree as arrays in
breadth-first order, and ``PMTree.flatten()`` wraps them in this module's
:class:`FlatPMTree`: every routing entry's fields (routing-object
coordinates, covering radius, parent distance, hyper-ring intervals,
child node) live in contiguous NumPy arrays, each depth level is one
contiguous node-id range, and leaf membership is one flat array
(``leaf_ids``) sliced per leaf.

The tree indexes a *prefix* of its point matrix.  Rows appended later
(:meth:`FlatPMTree.extend`) form an unindexed **tail**: point ids are
append-only, so the tail is always the contiguous suffix ``points[
leaf_ids.size:]``, and every query scores it with the same dense pass
that answers the leaf level.  A match is defined by its projected
distance alone, so a row answers the same from the tail as from a leaf;
the owner re-clusters (bulk build + ``flatten()``) when the tail has
grown enough to matter.  For the same reason, dropping dead points needs
no re-clustering: :meth:`FlatPMTree.compacted` filters the per-slot
arrays and keeps the routing entries.

Traversal is *level-synchronous and batched*: one call answers a whole
``(Q, m)`` query block by expanding the entire frontier — every surviving
``(query, node)`` pair — one level per step.  The Eq. 5 pruning battery
(parent-distance test, hyper-ring tests, sphere test) is applied to the
inner levels' routing entries as array masks, with no per-node Python
recursion, and visits exactly the nodes a per-query recursive walk of
the same tree visits (``tests/pmtree/test_flatten.py`` asserts it
against the pointer-tree oracle in ``tests/oracles/``).  The mask and
distance arithmetic lives in :mod:`repro.kernels`.

The leaf level has one route: the leaves the inner levels reached, as
runs of adjacent slots, are scored for the whole block as blocked GEMMs
(:meth:`FlatPMTree._dense_leaves`) — over a view of the slot range the
runs span when they fill at least half of it, over a gather of just
their rows when they do not.  Those scores come from a float32 copy of
the slot rows (``leaf_points``) and are estimates of the squared
distance with a proven error bound; the exact kernel runs — over the
float64 ``points`` — only where a score is too close to a boundary to
decide: ``radius``, ``lower``, or the L-th place of the limit cut
(:meth:`FlatPMTree._cut`, the one canonical cut every chunk of matches
goes through).  So every decision is the exact kernel's, and most
matches never get an exact distance: ``batch_range(sort=False)`` returns
the match *set* and no distances, ``sort=True`` computes them for the
output rows only.  The leaf members get no Eq. 5 filter of their own: in
exact arithmetic the filters are implied by the distance test, so the
pass emits every member of the scored slots whose exact distance is
within ``radius`` — the true ball (``tests/pmtree/test_dense_pass.py``),
since the inner filters, each carrying a relative ulp slack
(:func:`~repro.kernels.fast.filter_slack`) for the rounding of the two
distances it differences, never prune a subtree holding a match.
"""

from __future__ import annotations

import copy
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

    ``nodes`` and ``level_visits`` count the inner nodes plus the leaves
    the inner levels reached — the frontier a recursive walk visits.
    ``dist_comps`` charges what was scored: a centre distance per
    routing entry left by the inner filters, and every live slot the
    leaf pass scores, once per query row of the pass (the slots of
    leaves any row of the block reached, and the live rows of the
    unindexed tail).
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
    pass's estimate) and the exact projected distance where one was
    computed (NaN otherwise; ``None`` for a chunk with none).  Per query:
    ``tol`` bounds ``|key − d²|`` over all its chunks, and ``rescored``
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


#: The leaf pass scores a view of the slot range its runs span when they
#: fill at least this share of it, and a gather of just their rows below:
#: a gather copies each row once before the GEMM reads it, which pays off
#: only when it skips more than it copies.  ``tools/crossover.py`` → the
#: table in docs/tuning.md; not a knob.
_VIEW_FILL = 0.5

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

    A query writes nothing on it — every reader of an index shares one
    snapshot, so :meth:`batch_range` hands its work back as
    :class:`TraversalStats` instead of keeping counters.

    Construct via :meth:`from_tree` (or ``PMTree.flatten()``).  Node ids
    are breadth-first, the root is node 0, and ``levels[d]`` is the
    ``[lo, hi)`` node-id range of depth d.  For an inner node ``v``,
    ``span[v]`` slices the ``entry_*`` arrays; for a leaf it slices
    ``leaf_ids`` (and the per-slot arrays).  Leaf spans follow node-id
    order.

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
    ) -> None:
        self.points = points
        self.pivots = pivots
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
        #: point id per slot: the leaf members in traversal order, then the
        #: unindexed tail rows (``leaf_ids`` itself while there is no tail).
        tail = np.arange(leaf_ids.size, points.shape[0], dtype=np.int64)
        self.slot_ids = np.concatenate([leaf_ids, tail]) if tail.size else leaf_ids
        # Points re-packed in slot order, as float32, and ‖p‖² per slot
        # (the constant term of the dense scores): the one copy the dense
        # pass streams.  Nothing exact reads it — every distance is
        # computed from the float64 ``points[slot_ids[…]]``, so distances
        # are bit-identical to a per-pair walk's.
        self.leaf_points, self.leaf_sqnorm = _score_rows(points, self.slot_ids)
        #: per-slot liveness mask (parallel to ``slot_ids``), or None
        #: when no point is tombstoned.  Installed by :meth:`set_tombstones`;
        #: dead members drop out of every traversal before any distance
        #: computation or candidate-limit cut.
        self.leaf_alive: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    #: The keyword arguments of ``__init__``: what a built
    #: :class:`~repro.pmtree.tree.PMTree` holds.
    FIELDS = (
        "points", "pivots", "use_rings", "use_parent_filter", "is_leaf",
        "span_start", "span_end", "levels", "entry_center", "entry_radius",
        "entry_pd", "entry_hr_min", "entry_hr_max", "entry_child", "leaf_ids",
    )

    @classmethod
    def from_tree(cls, tree) -> "FlatPMTree":
        """Wrap a built :class:`~repro.pmtree.tree.PMTree`'s arrays
        (shared, not copied): the build already laid them out."""
        return cls(**{name: getattr(tree, name) for name in cls.FIELDS})

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    #: ``to_arrays`` keys that identify a serialized snapshot inside an
    #: ``.npz`` archive (``flat_is_leaf`` doubles as the presence marker).
    ARRAY_PREFIX = "flat_"

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Pure-array form of the snapshot for ``.npz`` persistence.

        Everything structural — node layout, routing-entry fields, leaf
        membership — keyed with the ``flat_`` prefix so they coexist with an index's own archive
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
        ``.npz`` archive holding those keys) — no tree is built.

        *points* must be the same projected matrix the snapshot was taken
        over (same values, same order) — rows past the stored ``leaf_ids``
        are the unindexed tail.  Older archives also hold the points'
        pivot distances and leaf parent distances, which no query reads
        any more: they are ignored.
        """
        return cls(
            points=np.ascontiguousarray(np.asarray(points, dtype=np.float64)),
            pivots=np.asarray(pivots, dtype=np.float64),
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

    def compacted(self, live: np.ndarray, points: np.ndarray) -> "FlatPMTree":
        """This snapshot without the points outside *live*, renumbered.

        *live* holds the sorted ids of the points to keep, and *points* is
        ``self.points[live]``.  Point ``live[j]`` becomes id ``j``.  The
        map is monotone, so the indexed rows stay the prefix and the tail
        stays the contiguous suffix.  Nothing is re-clustered:
        the per-slot arrays keep their kept entries in slot order, and
        each leaf's span is re-cut from a running count of kept slots, so
        a leaf may end up empty.  The routing entries are reused as they
        are, since a radius or ring interval that bounds a set also bounds
        every subset of it.  Matches depend on projected distances only,
        so every query gets the answers this snapshot gives with the
        dropped points tombstoned, under the new ids.  Returns a new
        snapshot and writes no array of this one.
        """
        kept_row = np.zeros(self.slot_ids.size, dtype=bool)
        kept_row[live] = True
        new_id = np.cumsum(kept_row) - 1
        kept_slot = kept_row[self.slot_ids]
        indexed = self.leaf_ids.size
        kept_leaf = kept_slot[:indexed]
        slots = np.flatnonzero(kept_slot)
        flat = copy.copy(self)
        flat.points = points
        # Leaf v's members are slots [span_start, span_end); inner spans
        # index routing entries and stay as they are.
        kept_before = np.concatenate([[0], np.cumsum(kept_leaf)])
        flat.span_start, flat.span_end = self.span_start.copy(), self.span_end.copy()
        flat.span_start[self.is_leaf] = kept_before[self.span_start[self.is_leaf]]
        flat.span_end[self.is_leaf] = kept_before[self.span_end[self.is_leaf]]
        flat.leaf_ids = new_id[self.leaf_ids[kept_leaf]]
        flat.slot_ids = new_id[self.slot_ids[slots]]
        flat.leaf_points = self.leaf_points[slots]
        flat.leaf_sqnorm = self.leaf_sqnorm[slots]
        flat.leaf_alive = None
        return flat

    def set_tombstones(self, dead_ids: np.ndarray) -> None:
        """Install the dead-id set; traversals skip those points.

        *dead_ids* are global point ids (the owner's tombstone array);
        passing an empty array clears the mask and restores the
        tombstone-free fast path.
        """
        dead = np.asarray(dead_ids, dtype=np.int64)
        self.leaf_alive = None if dead.size == 0 else ~np.isin(self.slot_ids, dead)

    # ------------------------------------------------------------------
    # batched traversal
    # ------------------------------------------------------------------

    def query_pivot_distances(self, queries: np.ndarray) -> np.ndarray:
        """(Q, s) distances query → global pivots, by differences like the
        build's point → pivot distances."""
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
        the ball of *radius* over every row of ``points``, indexed or
        tail.

        ``limits`` (per-query) keeps only each query's *closest* ``limits[i]``
        matches — the capped candidate fetch of Algorithm 2 — with ties at
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
        over the packed entry arrays (:mod:`repro.kernels`).  The leaves
        the block reached are then scored in one dense pass
        (:meth:`_expand_leaves`, :meth:`_dense_leaves`).  The unindexed
        tail, if any, is scored by that same pass when the reached slots
        run up to the last leaf slot (the tail's slots follow on), by one
        more otherwise, and its matches are pooled with the tree's before
        the one limit cut (:meth:`_cut`).
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

            # ---- leaf rows: score the reached slots ----
            if np.any(leaf_mask):
                self._expand_leaves(
                    queries,
                    radius,
                    lower,
                    limits,
                    frontier_q[leaf_mask],
                    frontier_node[leaf_mask],
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
                slice(self.leaf_ids.size, self.slot_ids.size),
                dist_comps, matches, kernel,
            )

        lims, ids, dists = self._assemble(queries, matches, limits, sort, kernel)
        stats = TraversalStats(nodes, dist_comps, level_visits, matches.rescored)
        return lims, ids, dists, stats

    def _expand_leaves(
        self,
        queries: np.ndarray,
        radius: float,
        lower: Optional[float],
        limits: Optional[np.ndarray],
        lq: np.ndarray,
        lnode: np.ndarray,
        dist_comps: np.ndarray,
        owes_tail: np.ndarray,
        matches: _Matches,
        kernel,
    ) -> None:
        """The leaves of frontier pairs ``(lq, lnode)``, for every query row
        among *lq*: their slot spans, sorted (leaf spans follow node-id
        order) and merged where adjacent into runs, scored by one
        :meth:`_dense_leaves` pass — over a view of ``[first run, last
        run)`` when the runs fill at least ``_VIEW_FILL`` of it, over the
        gathered runs otherwise."""
        reached = np.zeros(self.num_nodes, dtype=bool)
        reached[lnode] = True
        leaves = np.flatnonzero(reached)
        starts, ends = self.span_start[leaves], self.span_end[leaves]
        nonempty = ends > starts  # a compacted snapshot may hold empty leaves
        starts, ends = starts[nonempty], ends[nonempty]
        if starts.size == 0:
            return
        head = np.flatnonzero(np.concatenate([[True], starts[1:] != ends[:-1]]))
        run_lo = starts[head]
        run_hi = ends[np.concatenate([head[1:], [starts.size]]) - 1]
        # The frontier is query-major: distinct queries are its run heads.
        rows_q = lq[np.flatnonzero(np.diff(lq, prepend=-1))]
        if run_hi[-1] == self.leaf_ids.size < self.slot_ids.size:
            # The tail's slots follow the last leaf slot: one pass (one
            # pre-cut, one pool per row) scores both.
            run_hi[-1] = self.slot_ids.size
            owes_tail[rows_q] = False
        runs = run_hi - run_lo
        if int(runs.sum()) >= _VIEW_FILL * int(run_hi[-1] - run_lo[0]):
            slots = slice(int(run_lo[0]), int(run_hi[-1]))
        else:
            slots = _concat_ranges(run_lo, runs)
        self._dense_leaves(
            queries, radius, lower, limits, rows_q, slots, dist_comps, matches, kernel,
        )

    def _dense_leaves(
        self,
        queries: np.ndarray,
        radius: float,
        lower: Optional[float],
        limits: Optional[np.ndarray],
        rows_q: np.ndarray,
        slots,
        dist_comps: np.ndarray,
        matches: _Matches,
        kernel,
    ) -> None:
        """The slots *slots* — a ``slice`` (a view of the reached range, or
        the unindexed tail) or an index array (the reached runs, gathered)
        — as blocked float32 GEMMs over ``leaf_points``.

        Produces every match among those slots for the queries *rows_q*,
        and computes an exact distance only where a decision needs one.
        A score ``s = ‖p‖² − 2·q·p`` per (query, slot) — the
        squared distance less the row constant ``‖q‖²``, from the float32
        slot copy — is within ``tol`` of the exact kernel's d²
        (``expansion_tol`` at float32's eps: ``|s + ‖q‖² − d²| ≤ (m + 5)·
        eps/2·(‖p‖² + ‖q‖²)`` counting the two float32 conversions, and the
        kernel's own rounding, well inside 4·(m + 3)·eps over ``max‖p‖² +
        ‖q‖² + radius²``; docs/kernels.md).  So a slot scoring more than
        ``tol`` inside ``radius²`` (and outside ``lower²``) is a match, one
        scoring more than ``tol`` beyond is not, and only the slots in
        between are re-scored with ``pair_distances`` over the float64
        ``points`` and put to the exact ``≤ radius`` / ``> lower`` tests.
        Then, when a query holds more than its limit L, the one canonical
        cut (:meth:`_cut`) keeps what scores more than 2·tol
        below the L-th score and re-scores only the band around it.  What
        is emitted is decided by the exact kernel alone; the scores only
        choose what it must see.  Data far from the origin inflates
        ``tol`` until every slot is in a band — slower, never different.
        """
        points = self.leaf_points[slots]
        sqnorm = self.leaf_sqnorm[slots]
        slot_ids = self.slot_ids[slots]
        alive = None if self.leaf_alive is None else self.leaf_alive[slots]
        span = slot_ids.size
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
                cols = np.flatnonzero(hit[i])  # ascending place among *slots*
                if cols.size:
                    hit_scores[i].append(scores[i, cols])
                    cols += lo
                    hit_slots[i].append(cols)
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
            cols = np.concatenate(hit_slots[i])
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
                    cols, score, band = cols.take(listed), score.take(listed), band.take(listed)
            pool_rows.append(np.full(cols.size, i, dtype=np.int64))
            pool_slots.append(cols)
            pool_score.append(score)
            pool_band.append(band)
        if not pool_rows:
            return
        owner = np.concatenate(pool_rows)
        ids = slot_ids.take(np.concatenate(pool_slots))
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
        ``budget_cut`` kernel.
        """
        counts = np.diff(lims)
        capped = np.flatnonzero(counts > limits)
        keep = np.ones(ids.size, dtype=bool)
        bands: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        sizes: List[np.ndarray] = []
        places: List[np.ndarray] = []
        for g in capped:
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
        if not sizes:
            return keep, exact
        sizes = np.concatenate(sizes).astype(np.int64)
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
