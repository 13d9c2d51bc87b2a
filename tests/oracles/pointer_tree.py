"""The pointer PM-tree: the reference for the array build and the flat traversal.

This is the PM-tree as a Python node graph (Fig. 4(b) of the paper), built
by the same bulk clustering as :meth:`repro.pmtree.tree.PMTree.build` but
one node object at a time, with the recursive ``range_query`` /
``knn_within`` / ``knn`` walks and per-pair counters the product's
:class:`~repro.pmtree.flat.FlatPMTree` must reproduce:

* :func:`pack` lays the graph out breadth-first into a ``FlatPMTree``, so
  the array builder's output can be compared with it byte for byte;
* the flat traversal must return the walks' matches with the same
  floats and visit the same nodes (``node_accesses``);
* the walks keep the paper's per-pair semantics — Eq. 5 filters on
  every leaf member too — so their ``distance_computations`` are what
  Table 2's measured columns, the pruning ablation and the cost-model
  checks count (the product scores reached leaves densely and charges
  every member it scores);
* :func:`computation_cost` is the §4.2 cost model as a per-entry loop,
  the reference for the vectorised ``repro.costmodel``.

It shares the product's distance kernels (``_distances_to``,
``_pairwise``, ``_pivot_distances``) and nothing else.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.kernels.fast import filter_slack
from repro.pmtree.flat import FlatPMTree
from repro.pmtree.pivots import select_pivots
from repro.pmtree.tree import _distances_to, _pairwise, _pivot_distances
from repro.utils.heap import MinHeap
from repro.utils.rng import RandomState, as_generator

# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------


class RoutingEntry:
    """One inner-node slot: the covering radius ``r``, the covered
    subtree ``child``, the routing object ``center``, the distance to the
    parent routing object ``parent_distance`` and the hyper-rings ``hr``
    (one ``[min, max]`` row per pivot)."""

    __slots__ = ("center", "radius", "child", "parent_distance", "hr")

    def __init__(self, center, radius, child, parent_distance, hr) -> None:
        self.center = center
        self.radius = float(radius)
        self.child = child
        self.parent_distance = float(parent_distance)
        self.hr = hr


class LeafNode:
    """Point ids plus their distances to the parent routing object."""

    is_leaf = True

    def __init__(self, ids, parent_distances) -> None:
        self.ids: List[int] = [int(i) for i in ids]
        self.parent_distances: List[float] = [float(d) for d in parent_distances]

    @property
    def ids_array(self) -> np.ndarray:
        return np.asarray(self.ids, dtype=np.int64)

    @property
    def pd_array(self) -> np.ndarray:
        return np.asarray(self.parent_distances, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ids)


class InnerNode:
    """A list of routing entries, read as stacked arrays."""

    is_leaf = False

    def __init__(self, entries: List[RoutingEntry]) -> None:
        self.entries = entries

    @property
    def centers(self) -> np.ndarray:
        return np.stack([e.center for e in self.entries])

    @property
    def radii(self) -> np.ndarray:
        return np.asarray([e.radius for e in self.entries], dtype=np.float64)

    @property
    def pds(self) -> np.ndarray:
        return np.asarray([e.parent_distance for e in self.entries], dtype=np.float64)

    @property
    def hr_min(self) -> np.ndarray:
        return np.stack([e.hr[:, 0] for e in self.entries])

    @property
    def hr_max(self) -> np.ndarray:
        return np.stack([e.hr[:, 1] for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


Node = Union[LeafNode, InnerNode]


class CanonicalHeap:
    """The k smallest ``(key, id)`` pairs pushed, ties at the k-th key
    resolved by smallest id — the flat traversal's and the brute-force
    oracle's canonical cut."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: List[Tuple[float, int]] = []  # (-key, -id): root is the worst

    def push(self, key: float, pid: int) -> None:
        entry = (-key, -pid)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    @property
    def bound(self) -> float:
        return -self._heap[0][0] if len(self._heap) == self.k else float("inf")

    def items_sorted(self) -> List[Tuple[float, int]]:
        return sorted((-key, -pid) for key, pid in self._heap)


# ----------------------------------------------------------------------
# the tree
# ----------------------------------------------------------------------


class PointerPMTree:
    """PM-tree over the rows of a fixed point matrix, as a node graph.

    Same parameters as :meth:`repro.pmtree.tree.PMTree.build`, and the
    same random draws in the same order, so one seed builds the same tree.
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
        self.use_rings = use_rings
        self.use_parent_filter = use_parent_filter
        self._rng = as_generator(seed)
        if pivots is not None:
            self.pivots = np.asarray(pivots, dtype=np.float64).copy()
        else:
            self.pivots = select_pivots(points, num_pivots, method=pivot_method, seed=self._rng)
        self.num_pivots = self.pivots.shape[0]
        self._slack = filter_slack(points.shape[1])
        self.pivot_dists = _pivot_distances(points, self.pivots)
        self.root: Optional[Node] = None
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
        **kwargs: Any,
    ) -> "PointerPMTree":
        tree = cls(points, num_pivots=num_pivots, capacity=capacity, seed=seed, **kwargs)
        ids = np.arange(tree.points.shape[0], dtype=np.int64)
        tree.root = tree._bulk_build(ids)
        tree._count = int(ids.size)
        return tree

    def _bulk_build(self, ids: np.ndarray) -> Node:
        """Median-split into leaves, then pack level by level."""
        if ids.size <= self.capacity:
            return LeafNode(ids, np.zeros(ids.size))
        level: List[RoutingEntry] = []
        for group in self._balanced_leaf_groups(ids):
            center = self._one_center(self.points[group])
            level.append(self._make_entry(center, LeafNode(group, np.zeros(group.size))))
        while len(level) > 1:
            level = self._pack_level(level)
        root = level[0].child
        for entry in root.entries:  # the root has no parent routing object
            entry.parent_distance = 0.0
        return root

    def _balanced_leaf_groups(self, ids: np.ndarray) -> List[np.ndarray]:
        if ids.size <= self.capacity:
            return [ids]
        coords = self.points[ids]
        anchor = coords[int(self._rng.integers(0, ids.size))]
        seed_a = coords[int(np.argmax(_distances_to(coords, anchor)))]
        to_a = _distances_to(coords, seed_a)
        seed_b = coords[int(np.argmax(to_a))]
        side = to_a - _distances_to(coords, seed_b)
        order = np.argsort(side, kind="stable")
        half = ids.size // 2
        left, right = ids[order[:half]], ids[order[half:]]
        return self._balanced_leaf_groups(left) + self._balanced_leaf_groups(right)

    def _pack_level(self, entries: List[RoutingEntry]) -> List[RoutingEntry]:
        num_parents = int(np.ceil(len(entries) / self.capacity))
        boundaries = np.linspace(0, len(entries), num_parents + 1).astype(int)
        parents: List[RoutingEntry] = []
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            node = InnerNode(entries[start:stop])
            center = self._one_center(node.centers)
            parents.append(self._make_entry(center, node))
        return parents

    def _one_center(self, coords: np.ndarray) -> np.ndarray:
        if coords.shape[0] == 1:
            return coords[0].copy()
        if coords.shape[0] > 128:
            sample = coords[self._rng.choice(coords.shape[0], size=128, replace=False)]
        else:
            sample = coords
        matrix = _pairwise(sample)
        return sample[int(np.argmin(matrix.max(axis=1)))].copy()

    def _make_entry(self, center: np.ndarray, child: Node) -> RoutingEntry:
        """Wrap *child*: radius, rings and the children's parent distances."""
        if child.is_leaf:
            member_ids = child.ids_array
            dists = _distances_to(self.points[member_ids], center)
            radius = float(dists.max())
            child.parent_distances = [float(x) for x in dists]
            rings = self.pivot_dists[member_ids]
            hr = np.stack([rings.min(axis=0), rings.max(axis=0)], axis=1)
        else:
            dists = _distances_to(child.centers, center)
            radius = float((dists + child.radii).max())
            for entry, dist in zip(child.entries, dists):
                entry.parent_distance = float(dist)
            hr = np.stack([child.hr_min.min(axis=0), child.hr_max.max(axis=0)], axis=1)
        return RoutingEntry(center, radius, child, 0.0, hr)

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
        """All ``(point_id, distance)`` within *radius* of *query*;
        ``limit`` keeps the closest that many (:meth:`knn_within`),
        ``exclude`` skips ids."""
        query = np.asarray(query, dtype=np.float64)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        if limit is not None:
            if limit <= 0:
                return []
            return self.knn_within(query, k=limit, radius=radius, exclude=exclude)
        query_rings = self._query_pivot_distances(query)
        results: List[Tuple[int, float]] = []
        stack: List[Tuple[Node, Optional[float]]] = [(self.root, None)]
        while stack:
            node, dist_to_parent = stack.pop()
            self.node_accesses += 1
            if node.is_leaf:
                ids = node.ids_array
                keep = self._member_filters(node, ids, query_rings, radius, dist_to_parent)
                survivors = ids[keep]
                if survivors.size == 0:
                    continue
                dists = _distances_to(self.points[survivors], query)
                self.distance_computations += int(survivors.size)
                inside = dists <= radius
                for pid, dist in zip(survivors[inside], dists[inside]):
                    if exclude is None or int(pid) not in exclude:
                        results.append((int(pid), float(dist)))
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
        """The k nearest points with distance ≤ *radius*, sorted ascending:
        best-first, with the admission bound shrinking from *radius* to
        the k-th best distance; ties at the k-th distance keep the
        smallest ids."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        query_rings = self._query_pivot_distances(query)
        best = CanonicalHeap(k)
        frontier = MinHeap()
        frontier.push(0.0, (self.root, None))
        while frontier:
            bound, (node, dist_to_parent) = frontier.pop()
            admission = min(radius, best.bound)
            if bound > admission * (1.0 + self._slack):
                break
            self.node_accesses += 1
            if node.is_leaf:
                ids = node.ids_array
                keep = self._member_filters(node, ids, query_rings, admission, dist_to_parent)
                survivors = ids[keep]
                if survivors.size == 0:
                    continue
                dists = _distances_to(self.points[survivors], query)
                self.distance_computations += int(survivors.size)
                inside = dists <= admission
                for pid, dist in zip(survivors[inside], dists[inside]):
                    if exclude is None or int(pid) not in exclude:
                        best.push(float(dist), int(pid))
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
        """Best-first k nearest neighbours."""
        return self.knn_within(query, k, radius=np.inf)

    def _member_filters(self, node, ids, query_rings, radius, dist_to_parent) -> np.ndarray:
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
        self, node, query, query_rings, radius, dist_to_parent, with_bounds=False
    ):
        """Eq. 5's pruning battery on one inner node, in
        :func:`~repro.kernels.fast.inner_prune`'s form and slack: yields
        ``(entry_index, centre_distance[, lower_bound])`` per surviving
        child."""
        u = self._slack
        radii, pds = node.radii, node.pds
        keep = np.ones(len(node), dtype=bool)
        if self.use_parent_filter and dist_to_parent is not None:
            reach = radius + radii
            keep &= np.abs(pds - dist_to_parent) <= reach + u * (pds + dist_to_parent + reach)
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
        radii = radii[candidates]
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

    def height(self) -> int:
        height, node = 0, self.root
        while node is not None:
            height += 1
            node = node.entries[0].child if not node.is_leaf else None
        return height

    def iter_nodes(self) -> Iterator[Tuple[int, Node]]:
        """Yield ``(depth, node)`` pairs in DFS order."""
        stack: List[Tuple[int, Node]] = [(0, self.root)]
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


def bfs_levels(tree: PointerPMTree) -> List[List[Node]]:
    """The nodes of *tree*, one list per depth, in breadth-first order."""
    levels: List[List[Node]] = [[tree.root]]
    while True:
        nxt = [e.child for node in levels[-1] if not node.is_leaf for e in node.entries]
        if not nxt:
            return levels
        levels.append(nxt)


def pack(tree: PointerPMTree) -> FlatPMTree:
    """Lay the node graph out breadth-first as a :class:`FlatPMTree` (what
    ``PMTree.build`` emits directly)."""
    by_depth = bfs_levels(tree)
    bfs = [node for level in by_depth for node in level]
    node_index = {id(node): i for i, node in enumerate(bfs)}
    levels: List[Tuple[int, int]] = []
    lo = 0
    for level in by_depth:
        levels.append((lo, lo + len(level)))
        lo += len(level)
    m, s = tree.points.shape[1], tree.num_pivots
    span_start = np.zeros(len(bfs), dtype=np.int64)
    span_end = np.zeros(len(bfs), dtype=np.int64)
    entries: List[RoutingEntry] = []
    leaf_ids: List[int] = []
    for v, node in enumerate(bfs):
        if node.is_leaf:
            span_start[v] = len(leaf_ids)
            leaf_ids.extend(node.ids)
            span_end[v] = len(leaf_ids)
        else:
            span_start[v] = len(entries)
            entries.extend(node.entries)
            span_end[v] = len(entries)
    if entries:
        entry_center = np.stack([e.center for e in entries])
        entry_hr_min = np.ascontiguousarray(np.stack([e.hr[:, 0] for e in entries]))
        entry_hr_max = np.ascontiguousarray(np.stack([e.hr[:, 1] for e in entries]))
    else:  # single-leaf tree
        entry_center = np.empty((0, m), dtype=np.float64)
        entry_hr_min = np.empty((0, s), dtype=np.float64)
        entry_hr_max = np.empty((0, s), dtype=np.float64)
    return FlatPMTree(
        points=tree.points,
        pivots=tree.pivots,
        use_rings=tree.use_rings,
        use_parent_filter=tree.use_parent_filter,
        is_leaf=np.asarray([node.is_leaf for node in bfs], dtype=bool),
        span_start=span_start,
        span_end=span_end,
        levels=levels,
        entry_center=entry_center,
        entry_radius=np.asarray([e.radius for e in entries], dtype=np.float64),
        entry_pd=np.asarray([e.parent_distance for e in entries], dtype=np.float64),
        entry_hr_min=entry_hr_min,
        entry_hr_max=entry_hr_max,
        entry_child=np.asarray([node_index[id(e.child)] for e in entries], dtype=np.int64),
        leaf_ids=np.asarray(leaf_ids, dtype=np.int64),
    )


def computation_cost(tree: PointerPMTree, distribution, radius: float) -> float:
    """Expected distance computations of ``range(q, radius)`` (Eqs. 6–7)
    as a loop over the routing entries: each contributes the size of the
    node it points to times its access probability, and the root's
    fan-out is always paid."""
    def size(node) -> int:
        return len(node.ids) if node.is_leaf else len(node.entries)

    total = float(size(tree.root))
    for _, entry in tree.iter_entries():
        probability = float(distribution.cdf(entry.radius + radius))
        for pivot_index in range(tree.num_pivots):
            lo, hi = entry.hr[pivot_index]
            mass = float(distribution.cdf(hi + radius)) - float(
                distribution.cdf(max(0.0, lo - radius))
            )
            probability *= max(0.0, min(1.0, mass))
        total += size(entry.child) * probability
    return total
