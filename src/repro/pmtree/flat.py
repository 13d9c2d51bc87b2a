"""Flat structure-of-arrays PM-tree: the vectorized batched hot path.

The pointer :class:`~repro.pmtree.tree.PMTree` stays the *build* structure
— insertion, splits and the structural validator all operate on it — but
walking it one Python node at a time is the dominant cost of Algorithm
1/2 queries.  ``PMTree.flatten()`` packs the finished tree into this
module's :class:`FlatPMTree`: every routing entry's fields (routing-object
coordinates, covering radius, parent distance, hyper-ring intervals,
child pointer) live in contiguous NumPy arrays, nodes are numbered in
breadth-first order so each depth level is one contiguous id range, and
leaf membership is two flat arrays sliced per leaf.

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
(``tests/pmtree/test_flatten.py`` asserts both).  A capped traversal
(``limits``) whose pooled leaf frontier is large additionally runs a
*budget-aware admission pass* (see :class:`_Admission`): results stay
byte-identical but the work counters shrink, because the flat path stops
computing the full ball before cutting each query to its ``⌈βn⌉+k``
candidate limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels as _kernels


@dataclass(frozen=True)
class TraversalStats:
    """Per-query tree work of one :meth:`FlatPMTree.batch_range` call.

    ``nodes`` and ``dist_comps`` are ``(Q,)`` arrays — node accesses and
    point/centre distance evaluations attributed to each query — and
    ``level_visits`` is a ``(height,)`` array of (query, node) frontier
    pairs expanded per depth level, summed over the batch.
    """

    nodes: np.ndarray
    dist_comps: np.ndarray
    level_visits: np.ndarray


#: Leaf (query, member) pairs verified per admission chunk: small enough
#: that the running k-th candidate distance tightens between chunks,
#: large enough to keep each chunk vectorized.
_LEAF_ADMIT_CHUNK = 8192

#: Pooled leaf (query, member) pairs up to which a capped traversal still
#: expands its leaf frontier in one pass.  Chunked admission costs a dozen
#: small NumPy calls plus threshold bookkeeping per chunk and buys
#: cache-sized temporaries and a tightening radius; measured on 25k–100k
#: point trees the two break even at 0.2–0.5 M pairs (one-row and
#: few-row blocks sit below, 32-row blocks over 100k points above).
_SINGLE_PASS_PAIRS = 32 * _LEAF_ADMIT_CHUNK


class _Admission:
    """Per-query radius tightening for capped traversals.

    Tracks, per query, the ``limits[q]``-th smallest *admitted* candidate
    distance seen so far (``thr``); the effective search radius of every
    later (query, node/member) pair becomes ``min(radius, thr[q])``.
    This is a pure subset filter with unchanged results: the threshold
    from a partial candidate pool is always ≥ the final pool's k-th
    distance, comparisons stay inclusive (``≤``) so boundary ties
    survive, and therefore every dropped pair has a distance strictly
    greater than the final k-th — it could never be kept by the
    canonical ``(distance, id)`` budget cut.  Only the work counters
    (``TraversalStats``, ``dist_comps``) shrink.
    """

    __slots__ = ("limits", "thr", "_pools")

    def __init__(self, num_queries: int, limits: np.ndarray) -> None:
        self.limits = np.asarray(limits, dtype=np.int64)
        # limit == 0 admits nothing: the budget cut would discard it all.
        self.thr = np.where(self.limits > 0, np.inf, -np.inf)
        self._pools: List[Optional[List[np.ndarray]]] = [None] * num_queries

    def effective(self, radius: float, q: np.ndarray):
        """Per-pair effective radius ``min(radius, thr[q])``."""
        return np.minimum(radius, self.thr[q])

    def observe(self, q: np.ndarray, dists: np.ndarray) -> None:
        """Fold freshly admitted matches into the per-query thresholds.

        *q* is ascending (frontier expansion is query-major), so each
        query's slice of *dists* is contiguous.
        """
        if q.size == 0:
            return
        unique_q, first = np.unique(q, return_index=True)
        bounds = np.append(first, q.size)
        for i in range(unique_q.size):
            query = int(unique_q[i])
            limit = int(self.limits[query])
            if limit <= 0:
                continue
            pool = self._pools[query]
            if pool is None:
                pool = []
                self._pools[query] = pool
            pool.append(dists[bounds[i] : bounds[i + 1]])
            total = sum(chunk.size for chunk in pool)
            if total >= limit:
                merged = pool[0] if len(pool) == 1 else np.concatenate(pool)
                self._pools[query] = [merged]
                self.thr[query] = float(np.partition(merged, limit - 1)[limit - 1])


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

    The snapshot *references* the owning tree's point matrix and
    pivot-distance matrix rather than copying them; it goes stale when
    the pointer tree mutates (``PMLSH`` re-flattens after ``add``).
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
        # Leaf members re-packed in traversal order: the leaf-level gathers
        # read (near-)contiguous ranges instead of random point ids.  The
        # rows are copies of the same float64 values, so distances computed
        # from them are bit-identical to the pointer tree's.
        self.leaf_points = np.ascontiguousarray(points[leaf_ids])
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
        #: per-leaf-slot liveness mask (parallel to ``leaf_ids``), or None
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
        over (same values, same order); the stored pivot-distance matrix
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
        return int(self.leaf_ids.size)

    @property
    def num_live(self) -> int:
        """Leaf members that are not tombstoned."""
        if self.leaf_alive is None:
            return int(self.leaf_ids.size)
        return int(self.leaf_alive.sum())

    def set_tombstones(self, dead_ids: np.ndarray) -> None:
        """Install the dead-id set; traversals skip those leaf members.

        *dead_ids* are global point ids (the owner's tombstone array);
        passing an empty array clears the mask and restores the
        tombstone-free fast path.
        """
        dead = np.asarray(dead_ids, dtype=np.int64)
        self.leaf_alive = None if dead.size == 0 else ~np.isin(self.leaf_ids, dead)

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
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, TraversalStats]:
        """Projected-space range query for every row of *queries* at once.

        Returns CSR-style ``(lims, ids, dists, stats)``: query i's matches
        are ``ids[lims[i]:lims[i+1]]`` with their projected distances,
        sorted by ``(distance, id)``.  The result set per query is exactly
        the recursive ``PMTree.range_query(q, radius)`` set.

        ``limits`` (per-query) keeps only each query's *closest* ``limits[i]``
        matches — the capped candidate fetch of Algorithm 2, equal to the
        pointer tree's ``knn_within(q, k=limit, radius)`` set, with ties at
        the cut resolved canonically by ``(distance, id)``.  ``lower``
        drops matches with distance ≤ lower: the radius-enlarging loop
        fetches each round's *fresh annulus*, because every point inside
        the previous radius is already in its ``seen`` set.  ``sort=False``
        skips the per-query ``(distance, id)`` ordering of the output (the
        match *set* is unchanged) — the probe loops use it because they
        re-rank candidates by original-space distance anyway.

        One traversal serves the whole batch: the frontier holds every
        live ``(query, node)`` pair and advances one tree level per step,
        applying the Eq. 5 parent-distance / ring / sphere tests as masks
        over the packed entry arrays (:mod:`repro.kernels`).  When
        ``limits`` is given and the pooled leaf frontier exceeds
        ``_SINGLE_PASS_PAIRS`` (query, member) pairs, the leaf level runs
        in chunks and a budget-aware admission pass tightens each query's
        radius to its running ``limits[i]``-th candidate distance
        (identical results, less work, bounded temporaries); a smaller
        frontier (one-row and few-row blocks) is verified in a single
        pass, where per-chunk overhead outweighs what tightening saves.
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
        admission = None
        if limits is not None:
            limits = np.asarray(limits, dtype=np.int64)
            # The leaf frontier pools at most rows × indexed points pairs:
            # a block that cannot reach the chunked side skips the
            # admission bookkeeping on the inner levels too.
            if num_queries * self.leaf_ids.size > _SINGLE_PASS_PAIRS:
                admission = _Admission(num_queries, limits)

        # Frontier: one row per live (query, node) pair.  pd = distance
        # from the query to the node's routing object (NaN at the root,
        # where no parent-distance filter applies).
        frontier_q = np.arange(num_queries, dtype=np.int64)
        frontier_node = np.zeros(num_queries, dtype=np.int64)
        frontier_pd = np.full(num_queries, np.nan)
        # Candidate buffers shared across all queries of the batch.
        out_q: List[np.ndarray] = []
        out_id: List[np.ndarray] = []
        out_dist: List[np.ndarray] = []

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
                    frontier_q[leaf_mask],
                    frontier_node[leaf_mask],
                    frontier_pd[leaf_mask],
                    dist_comps,
                    out_q,
                    out_id,
                    out_dist,
                    kernel,
                    admission,
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
                admission,
            )

        lims, ids, dists = self._assemble(
            num_queries, out_q, out_id, out_dist, limits, sort, kernel
        )
        self.node_accesses += int(nodes.sum())
        self.distance_computations += int(dist_comps.sum())
        return lims, ids, dists, TraversalStats(nodes, dist_comps, level_visits)

    def _expand_leaves(
        self,
        queries: np.ndarray,
        query_rings: Optional[np.ndarray],
        radius: float,
        lower: Optional[float],
        lq: np.ndarray,
        lnode: np.ndarray,
        lpd: np.ndarray,
        dist_comps: np.ndarray,
        out_q: List[np.ndarray],
        out_id: List[np.ndarray],
        out_dist: List[np.ndarray],
        kernel,
        admission: Optional[_Admission],
    ) -> None:
        starts = self.span_start[lnode]
        counts = self.span_end[lnode] - starts
        member = _concat_ranges(starts, counts)
        if member.size == 0:
            return
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
        # A small pooled frontier verifies in one kernel call; a large
        # capped one runs in chunks, so each query's threshold tightens
        # between chunks and later pairs see a smaller effective radius.
        total = member.size
        if total <= _SINGLE_PASS_PAIRS:
            admission = None
        step = total if admission is None else _LEAF_ADMIT_CHUNK
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            c_member = member[lo:hi]
            c_q = rep_q[lo:hi]
            c_pd = rep_pd[lo:hi] if rep_pd is not None else None
            eff_r = radius if admission is None else admission.effective(radius, c_q)
            # Eq. 5 parent-distance + ring filters (fused in the kernel).
            keep = kernel.leaf_prune(
                member=c_member,
                rep_q=c_q,
                rep_pd=c_pd,
                leaf_pd=self.leaf_pd,
                ring_cols=self.leaf_ring_cols,
                query_rings=query_rings,
                radius=eff_r,
                use_parent_filter=self.use_parent_filter,
            )
            if not np.any(keep):
                continue
            surv_q = c_q[keep]
            surv_ids = self.leaf_ids[c_member[keep]]
            rows = self.leaf_points[c_member[keep]]
            dists = kernel.pair_distances(rows, queries[surv_q])
            dist_comps += np.bincount(surv_q, minlength=dist_comps.size)
            r_surv = eff_r[keep] if isinstance(eff_r, np.ndarray) else eff_r
            inside = dists <= r_surv
            if lower is not None:
                inside &= dists > lower
            if np.any(inside):
                out_q.append(surv_q[inside])
                out_id.append(surv_ids[inside])
                out_dist.append(dists[inside])
                if admission is not None:
                    admission.observe(surv_q[inside], dists[inside])

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
        admission: Optional[_Admission],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = self.span_start[inode]
        counts = self.span_end[inode] - starts
        eidx = _concat_ranges(starts, counts)
        rep_q = np.repeat(iq, counts)
        rep_pd = np.repeat(ipd, counts) if self.use_parent_filter else None
        eff_r = radius if admission is None else admission.effective(radius, rep_q)
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
            radius=eff_r,
            use_parent_filter=self.use_parent_filter,
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
        r_cand = eff_r[cand] if isinstance(eff_r, np.ndarray) else eff_r
        surviving = np.maximum(dists - self.entry_radius[cand_e], 0.0) <= r_cand
        return (
            cand_q[surviving],
            self.entry_child[cand_e[surviving]],
            dists[surviving],
        )

    @staticmethod
    def _assemble(
        num_queries: int,
        out_q: List[np.ndarray],
        out_id: List[np.ndarray],
        out_dist: List[np.ndarray],
        limits: Optional[np.ndarray],
        sort: bool,
        kernel,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group the pooled matches by query, apply the per-query limits as
        canonical ``(distance, id)`` cuts, and optionally sort each group.

        Frontier expansion is query-major, so each pooled chunk arrives
        already grouped by query — and a balanced tree produces exactly
        one leaf-level chunk — which makes grouping free in the common
        case; a stable argsort backstops lopsided trees.
        """
        if not out_q:
            return (
                np.zeros(num_queries + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        q = np.concatenate(out_q)
        ids = np.concatenate(out_id)
        dists = np.concatenate(out_dist)
        if len(out_q) > 1 and np.any(np.diff(q) < 0):
            order = np.argsort(q, kind="stable")
            q, ids, dists = q[order], ids[order], dists[order]
        counts = np.bincount(q, minlength=num_queries)
        lims = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        if limits is not None:
            limits = np.asarray(limits, dtype=np.int64)
            keep = kernel.budget_cut(q, ids, dists, counts, lims, limits)
            if keep is not None:
                q, ids, dists = q[keep], ids[keep], dists[keep]
                counts = np.bincount(q, minlength=num_queries)
                lims = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        if sort and ids.size:
            order = np.lexsort((ids, dists, q))
            ids, dists = ids[order], dists[order]
        return lims, ids, dists

    # ------------------------------------------------------------------
    # batched exact kNN in the indexed (projected) space
    # ------------------------------------------------------------------

    def batch_knn(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k nearest indexed points per query row, via the tree.

        Radius-doubling over :meth:`batch_range`: start from a density
        guess, re-probe the queries whose ball holds fewer than k points
        at twice the radius, and cut each finished query to its k best by
        ``(distance, id)`` — the same canonical tie order as the exact
        brute-force oracle.  This is the traversal behind PM-LSH's
        closest-pair self-join (each point's projected neighbourhood).
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
            lims, ids, dists, _ = self.batch_range(queries[active], radius)
            counts = np.diff(lims)
            done = counts >= k
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
        fraction = (k / max(1, self.leaf_ids.size)) ** (1.0 / max(1, m))
        return max(cover * fraction, cover * 1e-6)
