"""The R-tree proper: STR bulk load, ball range queries, and best-first
incremental nearest-neighbour search.

Like the PM-tree, the R-tree stores *point ids* into one shared ``(n, m)``
matrix so leaf-level distance evaluations are vectorised gathers.  A
``distance_computations`` counter tracks how many point-distance evaluations
each query performed — the quantity the §4.2 cost model predicts.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.rtree.geometry import MBR
from repro.utils.heap import BoundedMaxHeap, MinHeap


class _Node:
    """One R-tree node.  Leaves hold point ids; inner nodes hold children."""

    __slots__ = ("mbr", "children", "point_ids", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.mbr: Optional[MBR] = None
        self.children: List["_Node"] = []
        self.point_ids: List[int] = []

    def entry_count(self) -> int:
        return len(self.point_ids) if self.is_leaf else len(self.children)


class RTree:
    """An R-tree over the rows of a fixed point matrix.

    Parameters
    ----------
    points:
        ``(n, m)`` float64 matrix; the tree indexes row numbers.
    capacity:
        Maximum entries per node (fan-out).
    """

    def __init__(self, points: np.ndarray, capacity: int = 32) -> None:
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if capacity < 4:
            raise ValueError(f"capacity must be at least 4, got {capacity}")
        self.points = points
        self.capacity = capacity
        self._root: Optional[_Node] = None
        self._count = 0
        #: point-distance evaluations performed by queries (reset manually)
        self.distance_computations = 0
        #: node accesses performed by queries (reset manually)
        self.node_accesses = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, points: np.ndarray, capacity: int = 32) -> "RTree":
        """Build an R-tree over every row of *points* by Sort-Tile-Recursive
        packing (fast, well-shaped nodes)."""
        tree = cls(points, capacity=capacity)
        tree._bulk_load_str(np.arange(tree.points.shape[0]))
        return tree

    def _bulk_load_str(self, ids: np.ndarray) -> None:
        if ids.size == 0:
            self._root = _Node(is_leaf=True)
            self._root.mbr = None
            return
        leaves = self._str_pack_leaves(ids)
        self._count = int(ids.size)
        level = leaves
        while len(level) > 1:
            level = self._str_pack_inner(level)
        self._root = level[0]

    def _str_pack_leaves(self, ids: np.ndarray) -> List[_Node]:
        """Sort-Tile-Recursive packing of point ids into leaf nodes."""
        coords = self.points[ids]
        m = coords.shape[1]
        groups: List[np.ndarray] = [ids[np.argsort(coords[:, 0], kind="stable")]]
        # Recursively slab-partition along each axis.
        for axis in range(m):
            pages_needed = int(np.ceil(len(ids) / self.capacity))
            remaining_axes = m - axis
            slabs_this_axis = int(np.ceil(pages_needed ** (1.0 / remaining_axes)))
            if slabs_this_axis <= 1 and axis < m - 1:
                continue
            new_groups: List[np.ndarray] = []
            for group in groups:
                order = np.argsort(self.points[group, axis], kind="stable")
                group = group[order]
                slab_size = int(np.ceil(len(group) / max(1, slabs_this_axis)))
                slab_size = max(slab_size, self.capacity if axis == m - 1 else 1)
                for start in range(0, len(group), slab_size):
                    new_groups.append(group[start : start + slab_size])
            groups = new_groups
            if all(len(g) <= self.capacity for g in groups):
                break
        leaves: List[_Node] = []
        for group in groups:
            for start in range(0, len(group), self.capacity):
                chunk = group[start : start + self.capacity]
                leaf = _Node(is_leaf=True)
                leaf.point_ids = [int(i) for i in chunk]
                leaf.mbr = MBR.from_points(self.points[chunk])
                leaves.append(leaf)
        return leaves

    def _str_pack_inner(self, nodes: List[_Node]) -> List[_Node]:
        """Pack one level of nodes into parents, ordered by MBR center."""
        centers = np.array([node.mbr.center() for node in nodes])
        order = np.lexsort(tuple(centers[:, axis] for axis in range(centers.shape[1] - 1, -1, -1)))
        parents: List[_Node] = []
        for start in range(0, len(nodes), self.capacity):
            chunk = [nodes[i] for i in order[start : start + self.capacity]]
            parent = _Node(is_leaf=False)
            parent.children = chunk
            parent.mbr = MBR.union_of([c.mbr for c in chunk])
            parents.append(parent)
        return parents

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def reset_counters(self) -> None:
        self.distance_computations = 0
        self.node_accesses = 0

    def range_query(
        self, query: np.ndarray, radius: float, limit: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """All ``(point_id, distance)`` with distance ≤ *radius*.

        With *limit*, delegates to :meth:`knn_within` so the collected
        points are the *closest* ``limit`` in-ball points — the same
        semantics as the PM-tree's limited range query, which keeps the
        R-LSH ablation an honest tree-for-tree comparison.
        """
        query = np.asarray(query, dtype=np.float64)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        if self._root is None or self._root.mbr is None:
            return []
        if limit is not None:
            if limit <= 0:
                return []
            return self.knn_within(query, k=limit, radius=radius)
        results: List[Tuple[int, float]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.node_accesses += 1
            if node.is_leaf:
                ids = np.asarray(node.point_ids, dtype=np.int64)
                diff = self.points[ids] - query
                dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                self.distance_computations += int(ids.size)
                inside = dists <= radius
                for point_id, dist in zip(ids[inside], dists[inside]):
                    results.append((int(point_id), float(dist)))
            else:
                for child in node.children:
                    if child.mbr.intersects_ball(query, radius):
                        stack.append(child)
        return results

    def knn_within(
        self,
        query: np.ndarray,
        k: int,
        radius: float = np.inf,
        exclude: Optional[set] = None,
    ) -> List[Tuple[int, float]]:
        """The k nearest points with distance ≤ *radius*, sorted ascending.

        Best-first over MINDIST with a shrinking admission bound: once k
        candidates are held, subtrees are pruned against the current k-th
        best distance instead of the full radius.  The R-tree twin of
        :meth:`repro.pmtree.tree.PMTree.knn_within` — but note the R-tree
        has no per-point prefilter at the leaves, so every member of an
        opened leaf costs a distance computation (the gap Table 2 predicts).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if self._root is None or self._root.mbr is None:
            return []
        best = BoundedMaxHeap(k)
        frontier = MinHeap()
        frontier.push(self._root.mbr.min_distance(query), self._root)
        while frontier:
            bound, node = frontier.pop()
            admission = min(radius, best.bound)
            if bound > admission:
                break
            self.node_accesses += 1
            if node.is_leaf:
                ids = np.asarray(node.point_ids, dtype=np.int64)
                diff = self.points[ids] - query
                dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                self.distance_computations += int(ids.size)
                inside = dists <= admission
                for point_id, dist in zip(ids[inside], dists[inside]):
                    pid = int(point_id)
                    if exclude is not None and pid in exclude:
                        continue
                    best.push(float(dist), pid)
            else:
                cutoff = min(radius, best.bound)
                for child in node.children:
                    child_bound = child.mbr.min_distance(query)
                    if child_bound <= cutoff:
                        frontier.push(child_bound, child)
        return [(pid, dist) for dist, pid in best.items_sorted()]

    def nearest_iter(self, query: np.ndarray) -> Iterator[Tuple[int, float]]:
        """Yield ``(point_id, distance)`` in ascending distance order.

        Best-first traversal over MINDIST — the ``incSearch`` primitive SRS
        calls repeatedly.  The iterator is lazy: consuming T results costs
        O((T + visited nodes)·log frontier).
        """
        query = np.asarray(query, dtype=np.float64)
        if self._root is None or self._root.mbr is None:
            return
        frontier = MinHeap()
        frontier.push(self._root.mbr.min_distance(query), ("node", self._root))
        while frontier:
            key, (kind, payload) = frontier.pop()
            if kind == "point":
                yield payload, key
                continue
            node: _Node = payload
            self.node_accesses += 1
            if node.is_leaf:
                ids = np.asarray(node.point_ids, dtype=np.int64)
                diff = self.points[ids] - query
                dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                self.distance_computations += int(ids.size)
                for point_id, dist in zip(ids, dists):
                    frontier.push(float(dist), ("point", int(point_id)))
            else:
                for child in node.children:
                    frontier.push(child.mbr.min_distance(query), ("node", child))

    def knn(self, query: np.ndarray, k: int) -> List[Tuple[int, float]]:
        """Exact k nearest neighbours in the indexed (projected) space."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        results: List[Tuple[int, float]] = []
        for point_id, dist in self.nearest_iter(query):
            results.append((point_id, dist))
            if len(results) == k:
                break
        return results

    # ------------------------------------------------------------------
    # introspection / validation
    # ------------------------------------------------------------------

    def height(self) -> int:
        height, node = 0, self._root
        while node is not None:
            height += 1
            node = node.children[0] if not node.is_leaf and node.children else None
        return height

    def iter_nodes(self) -> Iterator[Tuple[int, "_Node"]]:
        """Yield ``(depth, node)`` pairs; used by the cost model and tests."""
        if self._root is None:
            return
        stack = [(0, self._root)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            if not node.is_leaf:
                stack.extend((depth + 1, child) for child in node.children)

    def check_invariants(self) -> None:
        """Raise AssertionError on any violated structural invariant."""
        if self._root is None or self._root.mbr is None:
            assert self._count == 0
            return
        seen: List[int] = []
        leaf_depths = set()
        for depth, node in self.iter_nodes():
            if node.is_leaf:
                leaf_depths.add(depth)
                assert node.point_ids, "empty leaf"
                for point_id in node.point_ids:
                    assert node.mbr.contains_point(self.points[point_id]), (
                        f"leaf MBR does not contain point {point_id}"
                    )
                seen.extend(node.point_ids)
            else:
                assert node.children, "empty inner node"
                for child in node.children:
                    assert node.mbr.lo.shape == child.mbr.lo.shape
                    assert bool(np.all(node.mbr.lo <= child.mbr.lo)), "child MBR leaks (lo)"
                    assert bool(np.all(node.mbr.hi >= child.mbr.hi)), "child MBR leaks (hi)"
        assert len(leaf_depths) == 1, f"leaves at different depths: {leaf_depths}"
        assert len(seen) == self._count, f"point count mismatch {len(seen)} != {self._count}"
        assert len(set(seen)) == len(seen), "duplicate point ids in leaves"
