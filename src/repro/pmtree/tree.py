"""The PM-tree: an M-tree clipped by global-pivot hyper-rings (§4.1).

Indexing model
--------------
The tree indexes *row ids* of one fixed ``(n, m)`` float64 matrix (for
PM-LSH this is the projected dataset).  A ``(n, s)`` matrix of distances
from every point to the ``s`` global pivots is precomputed once; hyper-ring
construction and leaf-level ring filtering are numpy gathers against it.

There is one way to build it — :meth:`PMTree.build`'s bulk clustering —
and no way to grow it: PM-LSH appends new rows to the flat snapshot's
unindexed tail (:meth:`repro.pmtree.flat.FlatPMTree.extend`) and bulk-builds
again when the tail has grown.  This class is the builder, the
``range_query``/``knn_within`` reference the flat traversal is tested
against, and what ``flatten()`` packs.

Pruning tests for a range query ``range(q, r)`` on a routing entry ``e``
(Eq. 5 of the paper):

1. parent-distance test: ``|d(q, parent RO) − e.PD| > r + e.r`` → prune
   without computing ``d(q, e.RO)``;
2. sphere test: ``d(q, e.RO) > r + e.r`` → prune;
3. ring tests, one per pivot: the interval
   ``[d(q, p_i) − r, d(q, p_i) + r]`` must intersect ``e.HR[i]``.

``distance_computations`` counts evaluated point/centre distances — the
quantity the §4.2 cost models predict and Table 2 compares.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels.fast import filter_slack
from repro.pmtree.entries import InnerNode, LeafNode, Node, RoutingEntry
from repro.pmtree.pivots import select_pivots
from repro.utils.heap import BoundedMaxHeap, MinHeap
from repro.utils.rng import RandomState, as_generator


class PMTree:
    """PM-tree over the rows of a fixed point matrix.

    Parameters
    ----------
    points:
        ``(n, m)`` matrix to index (row ids are the keys).
    num_pivots:
        The paper's ``s``; 0 yields a plain M-tree.
    capacity:
        Maximum entries per node; the bulk load fills every leaf to at
        least ``capacity // 2``.
    pivot_method:
        Pivot selection strategy (see :mod:`repro.pmtree.pivots`).
    use_rings / use_parent_filter:
        Ablation switches for the two PM-tree-specific pruning tests.
    """

    def __init__(
        self,
        points: np.ndarray,
        num_pivots: int = 5,
        capacity: int = 32,
        pivot_method: str = "maxsep",
        use_rings: bool = True,
        use_parent_filter: bool = True,
        seed: RandomState = None,
        pivots: Optional[np.ndarray] = None,
    ) -> None:
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got shape {points.shape}")
        if capacity < 4:
            raise ValueError(f"capacity must be at least 4, got {capacity}")
        self.points = points
        self.capacity = capacity
        self.pivot_method = pivot_method
        self.use_rings = use_rings
        self.use_parent_filter = use_parent_filter
        self._rng = as_generator(seed)
        if pivots is not None:
            # Explicit pivots (e.g. restored from a persisted index) bypass
            # the selection heuristic.
            pivots = np.asarray(pivots, dtype=np.float64)
            if pivots.ndim != 2 or pivots.shape[1] != points.shape[1]:
                raise ValueError(
                    f"pivots must be (s, {points.shape[1]}), got {pivots.shape}"
                )
            self.pivots = pivots.copy()
        else:
            self.pivots = select_pivots(
                points, num_pivots, method=pivot_method, seed=self._rng
            )
        self.num_pivots = self.pivots.shape[0]
        #: the Eq. 5 filters' relative ulp slack (``kernels.fast.filter_slack``)
        self._slack = filter_slack(points.shape[1])
        # (n, s) distances from every point to every pivot; the backbone of
        # both HR maintenance and leaf-level ring filtering.
        if self.num_pivots:
            self.pivot_dists = _cross_distances(points, self.pivots)
        else:
            self.pivot_dists = np.empty((points.shape[0], 0), dtype=np.float64)
        self._root: Optional[Node] = None
        self._count = 0
        #: point/centre distance evaluations performed by queries
        self.distance_computations = 0
        #: nodes visited by queries
        self.node_accesses = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        num_pivots: int = 5,
        capacity: int = 32,
        seed: RandomState = None,
        **kwargs: object,
    ) -> "PMTree":
        """Bulk-build a PM-tree over all rows of *points* (recursive
        clustering: fast, well-shaped, every leaf at the same depth)."""
        tree = cls(points, num_pivots=num_pivots, capacity=capacity, seed=seed, **kwargs)
        ids = np.arange(points.shape[0], dtype=np.int64)
        tree._root = tree._bulk_build(ids)
        tree._count = int(ids.size)
        return tree

    def _bulk_build(self, ids: np.ndarray) -> Node:
        """Balanced bottom-up bulk load.

        Points are recursively median-split along generalised hyperplanes
        (two far-apart seeds; members sorted by ``d(x,a) − d(x,b)``) until
        groups fit a leaf, so every leaf holds between capacity/2 and
        capacity points.  Leaves are then packed level by level — exactly
        like a B+-tree bulk load, but with metric routing entries — which
        keeps all leaves at the same depth and node counts minimal.
        """
        if ids.size <= self.capacity:
            leaf = LeafNode()
            leaf.ids = [int(i) for i in ids]
            leaf.parent_distances = [0.0] * int(ids.size)
            return leaf
        level: List[RoutingEntry] = []
        for group in self._balanced_leaf_groups(ids):
            leaf = LeafNode()
            leaf.ids = [int(i) for i in group]
            leaf.parent_distances = [0.0] * int(group.size)
            center = self._one_center(self.points[group])
            level.append(self._make_entry(center, leaf, parent_distance=0.0))
        while len(level) > 1:
            level = self._pack_level(level)
        root = level[0].child
        if not root.is_leaf:  # the root has no parent routing object
            for entry in root.entries:
                entry.parent_distance = 0.0
            root.invalidate()
        return root

    def _balanced_leaf_groups(self, ids: np.ndarray) -> List[np.ndarray]:
        """Median hyperplane splits until every group fits in one leaf."""
        if ids.size <= self.capacity:
            return [ids]
        coords = self.points[ids]
        anchor = coords[int(self._rng.integers(0, ids.size))]
        seed_a = coords[int(np.argmax(_distances_to(coords, anchor)))]
        to_a = _distances_to(coords, seed_a)
        seed_b = coords[int(np.argmax(to_a))]
        side = to_a - _distances_to(coords, seed_b)
        # Let go of this level's gather before the recursion: the
        # path from the root holds one id array per level, not n × m floats.
        del coords, anchor, seed_a, seed_b, to_a
        order = np.argsort(side, kind="stable")
        half = ids.size // 2
        left, right = ids[order[:half]], ids[order[half:]]
        return self._balanced_leaf_groups(left) + self._balanced_leaf_groups(right)

    def _pack_level(self, entries: List[RoutingEntry]) -> List[RoutingEntry]:
        """Group consecutive entries (they are spatially coherent thanks to
        the split order) into parent nodes of near-equal fan-out."""
        num_parents = int(np.ceil(len(entries) / self.capacity))
        boundaries = np.linspace(0, len(entries), num_parents + 1).astype(int)
        parents: List[RoutingEntry] = []
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            chunk = entries[start:stop]
            node = InnerNode()
            for entry in chunk:
                node.add(entry)
            center = self._one_center(node.centers)
            parents.append(self._make_entry(center, node, parent_distance=0.0))
        return parents

    def _one_center(self, coords: np.ndarray) -> np.ndarray:
        """Approximate 1-center: the member minimising the maximum distance
        to the others (exact over ≤ 128 members, sampled beyond)."""
        if coords.shape[0] == 1:
            return coords[0].copy()
        if coords.shape[0] > 128:
            sample = coords[self._rng.choice(coords.shape[0], size=128, replace=False)]
        else:
            sample = coords
        matrix = _pairwise(sample)
        return sample[int(np.argmin(matrix.max(axis=1)))].copy()

    def _make_entry(
        self, center: np.ndarray, child: Node, parent_distance: float
    ) -> RoutingEntry:
        """Wrap *child* in a routing entry, computing radius and rings
        bottom-up from the child's content."""
        if child.is_leaf:
            member_ids = child.ids_array
            coords = self.points[member_ids]
            dists = _distances_to(coords, center)
            radius = float(dists.max()) if dists.size else 0.0
            child.parent_distances = [float(x) for x in dists]
            child.invalidate()
            if self.num_pivots:
                rings = self.pivot_dists[member_ids]
                hr = np.stack([rings.min(axis=0), rings.max(axis=0)], axis=1)
            else:
                hr = np.empty((0, 2), dtype=np.float64)
        else:
            centers = child.centers
            dists = _distances_to(centers, center)
            radius = float((dists + child.radii).max()) if len(child) else 0.0
            for entry, dist in zip(child.entries, dists):
                entry.parent_distance = float(dist)
            child.invalidate()
            if self.num_pivots:
                hr = np.stack(
                    [child.hr_min.min(axis=0), child.hr_max.max(axis=0)], axis=1
                )
            else:
                hr = np.empty((0, 2), dtype=np.float64)
        return RoutingEntry(center, radius, child, parent_distance, hr)

    def flatten(self):
        """Pack the built tree into a :class:`~repro.pmtree.flat.FlatPMTree`.

        The flat snapshot shares this tree's point and pivot-distance
        matrices and answers batched range queries with identical results
        and counters.
        """
        from repro.pmtree.flat import FlatPMTree

        return FlatPMTree.from_tree(self)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def reset_counters(self) -> None:
        self.distance_computations = 0
        self.node_accesses = 0

    def range_query(
        self,
        query: np.ndarray,
        radius: float,
        limit: Optional[int] = None,
        exclude: Optional[set] = None,
    ) -> List[Tuple[int, float]]:
        """All ``(point_id, distance)`` within *radius* of *query*.

        ``limit`` stops the traversal once that many results are collected
        (Algorithm 2 line 7 probes only until ``βn + k`` candidates are
        found).  ``exclude`` skips ids already collected by a previous,
        smaller-radius pass of the radius-enlarging loop.
        """
        query = np.asarray(query, dtype=np.float64)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        if self._root is None:
            return []
        if limit is not None:
            if limit <= 0:
                return []
            return self.knn_within(query, k=limit, radius=radius, exclude=exclude)
        query_rings = self._query_pivot_distances(query)
        results: List[Tuple[int, float]] = []
        stack: List[Tuple[Node, Optional[float]]] = [(self._root, None)]
        while stack:
            node, dist_to_parent = stack.pop()
            self.node_accesses += 1
            if node.is_leaf:
                ids = node.ids_array
                if ids.size == 0:
                    continue
                # Parent-distance filter |d(q, par) − o.PD| ≤ r, then the
                # ring filter ∀i |d(q,p_i) − d(o,p_i)| ≤ r.
                keep = self._member_filters(node, ids, query_rings, radius, dist_to_parent)
                survivors = ids[keep]
                if survivors.size == 0:
                    continue
                dists = _distances_to(self.points[survivors], query)
                self.distance_computations += int(survivors.size)
                inside = dists <= radius
                for pid, dist in zip(survivors[inside], dists[inside]):
                    pid = int(pid)
                    if exclude is not None and pid in exclude:
                        continue
                    results.append((pid, float(dist)))
            else:
                for entry_index, center_dist in self._surviving_children(
                    node, query, query_rings, radius, dist_to_parent
                ):
                    stack.append((node.entries[entry_index].child, center_dist))
        return results

    def knn_within(
        self,
        query: np.ndarray,
        k: int,
        radius: float = np.inf,
        exclude: Optional[set] = None,
    ) -> List[Tuple[int, float]]:
        """The k nearest points with distance ≤ *radius*, sorted ascending.

        Best-first traversal with a *shrinking admission bound*: nodes enter
        the frontier keyed by their distance lower bound (sphere test
        combined with the tightest hyper-ring bound); once k candidates are
        held, the admission bound drops from *radius* to the current k-th
        best distance, so later subtrees prune against the tighter value.
        ``radius=inf`` yields plain kNN; a finite radius yields the
        *closest k points inside the ball* — exactly the candidate set
        Algorithm 2 wants when it probes until βn + k points are found.
        Ties at the k-th distance resolve canonically by smallest id, so
        the capped set matches the flat traversal's ``(distance, id)``
        cut bit for bit even on duplicate points.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if self._root is None:
            return []
        query_rings = self._query_pivot_distances(query)
        best = BoundedMaxHeap(k, canonical_values=True)
        frontier = MinHeap()
        frontier.push(0.0, (self._root, None))
        while frontier:
            bound, (node, dist_to_parent) = frontier.pop()
            admission = min(radius, best.bound)
            if bound > admission * (1.0 + self._slack):
                break
            self.node_accesses += 1
            if node.is_leaf:
                ids = node.ids_array
                if ids.size == 0:
                    continue
                keep = self._member_filters(node, ids, query_rings, admission, dist_to_parent)
                survivors = ids[keep]
                if survivors.size == 0:
                    continue
                dists = _distances_to(self.points[survivors], query)
                self.distance_computations += int(survivors.size)
                inside = dists <= admission
                for pid, dist in zip(survivors[inside], dists[inside]):
                    pid = int(pid)
                    if exclude is not None and pid in exclude:
                        continue
                    best.push(float(dist), pid)
            else:
                for entry_index, center_dist, child_bound in self._surviving_children(
                    node, query, query_rings, admission, dist_to_parent, with_bounds=True
                ):
                    if child_bound <= min(radius, best.bound) * (1.0 + self._slack):
                        frontier.push(
                            child_bound, (node.entries[entry_index].child, center_dist)
                        )
        return [(pid, dist) for dist, pid in best.items_sorted()]

    def knn(self, query: np.ndarray, k: int) -> List[Tuple[int, float]]:
        """Best-first k nearest neighbours in the indexed space.

        Lower bounds combine the sphere bound ``max(0, d(q,RO) − r)`` with
        the tightest hyper-ring bound, so rings prune here exactly as they
        do for range queries.
        """
        return self.knn_within(query, k, radius=np.inf)

    def _member_filters(
        self,
        node: LeafNode,
        ids: np.ndarray,
        query_rings: np.ndarray,
        radius: float,
        dist_to_parent: Optional[float],
    ) -> np.ndarray:
        """Eq. 5's leaf-member filters as a keep mask over *ids*, in
        :func:`~repro.kernels.fast.leaf_prune`'s form: ``|a − b| ≤ r +
        u·(a + b + r)``."""
        u = self._slack
        keep = np.ones(ids.size, dtype=bool)
        if self.use_parent_filter and dist_to_parent is not None:
            pd = node.pd_array
            keep &= np.abs(pd - dist_to_parent) <= radius + u * (pd + dist_to_parent + radius)
        if self.use_rings and self.num_pivots:
            rings = self.pivot_dists[ids]
            gaps = np.abs(rings - query_rings)
            keep &= (gaps <= radius + u * (rings + query_rings + radius)).all(axis=1)
        return keep

    def _surviving_children(
        self,
        node: InnerNode,
        query: np.ndarray,
        query_rings: np.ndarray,
        radius: float,
        dist_to_parent: Optional[float],
        with_bounds: bool = False,
    ):
        """Apply Eq. 5's pruning battery to one inner node.

        Yields ``(entry_index, centre_distance)`` for every child whose
        region can intersect B(q, radius); with ``with_bounds=True`` a third
        element carries the child's distance lower bound (sphere ∨ rings,
        each less its ulp slack).  The parent-distance prefilter runs first
        because it costs no new distance computation.  Every test has
        :func:`~repro.kernels.fast.inner_prune`'s form and slack, so the
        flat traversal prunes exactly the same children.
        """
        u = self._slack
        keep = np.ones(len(node), dtype=bool)
        if self.use_parent_filter and dist_to_parent is not None:
            reach = radius + node.radii
            keep &= np.abs(node.pds - dist_to_parent) <= reach + u * (
                node.pds + dist_to_parent + reach
            )
        if self.use_rings and self.num_pivots:
            lo, hi = node.hr_min, node.hr_max
            ring_ok = (lo <= query_rings + radius + u * (lo + query_rings + radius)) & (
                hi >= query_rings - radius - u * (hi + query_rings + radius)
            )
            keep &= ring_ok.all(axis=1)
        candidates = np.flatnonzero(keep)
        if candidates.size == 0:
            return
        dists = _distances_to(node.centers[candidates], query)
        self.distance_computations += int(candidates.size)
        radii = node.radii[candidates]
        surviving = dists - radii <= radius + u * (dists + radii + radius)
        if with_bounds:
            bounds = np.maximum(dists - radii - u * (dists + radii), 0.0)
            if self.use_rings and self.num_pivots:
                lo, hi = node.hr_min[candidates], node.hr_max[candidates]
                below = lo - query_rings - u * (lo + query_rings)
                above = query_rings - hi - u * (hi + query_rings)
                bounds = np.maximum(bounds, np.maximum(below, above).max(axis=1))
            for entry_index, center_dist, bound in zip(
                candidates[surviving], dists[surviving], bounds[surviving]
            ):
                yield int(entry_index), float(center_dist), float(bound)
        else:
            for entry_index, center_dist in zip(candidates[surviving], dists[surviving]):
                yield int(entry_index), float(center_dist)

    def _query_pivot_distances(self, query: np.ndarray) -> np.ndarray:
        if not self.num_pivots:
            return np.empty(0, dtype=np.float64)
        return _distances_to(self.pivots, query)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def root(self) -> Optional[Node]:
        return self._root

    def height(self) -> int:
        height, node = 0, self._root
        while node is not None:
            height += 1
            node = node.entries[0].child if not node.is_leaf and node.entries else None
        return height

    def iter_nodes(self) -> Iterator[Tuple[int, Node]]:
        """Yield ``(depth, node)`` pairs in DFS order (cost model, tests)."""
        if self._root is None:
            return
        stack: List[Tuple[int, Node]] = [(0, self._root)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            if not node.is_leaf:
                stack.extend((depth + 1, e.child) for e in node.entries)

    def iter_entries(self) -> Iterator[Tuple[int, RoutingEntry]]:
        """Yield ``(depth, routing_entry)`` for every routing entry."""
        for depth, node in self.iter_nodes():
            if not node.is_leaf:
                for entry in node.entries:
                    yield depth, entry


# ----------------------------------------------------------------------
# vector helpers
# ----------------------------------------------------------------------


#: Bytes of the difference block :func:`_distances_to` reuses.
_DIFF_BLOCK_BYTES = 1 << 18


def _distances_to(rows: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """``‖row − anchor‖`` per row, through one reused cache-sized block:
    each row reduces independently, so the blocks change no bit, and a
    bulk build's splits never hold an n × m difference matrix."""
    num_rows, dim = rows.shape
    out = np.empty(num_rows, dtype=np.float64)
    step = max(64, _DIFF_BLOCK_BYTES // (8 * max(1, dim)))
    diff = np.empty((min(step, num_rows), dim), dtype=np.float64)
    for lo in range(0, num_rows, step):
        hi = min(lo + step, num_rows)
        block = np.subtract(rows[lo:hi], anchor, out=diff[: hi - lo])
        np.einsum("ij,ij->i", block, block, out=out[lo:hi])
    return np.sqrt(out, out=out)


def _pairwise(coords: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", coords, coords)
    matrix = sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T)
    np.maximum(matrix, 0.0, out=matrix)
    return np.sqrt(matrix)


def _cross_distances(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    sq_points = np.einsum("ij,ij->i", points, points)
    sq_anchors = np.einsum("ij,ij->i", anchors, anchors)
    matrix = sq_points[:, None] + sq_anchors[None, :] - 2.0 * (points @ anchors.T)
    np.maximum(matrix, 0.0, out=matrix)
    return np.sqrt(matrix)
