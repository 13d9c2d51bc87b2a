"""LSB-Forest: Z-order-encoded LSH over B-trees (Tao et al., SIGMOD'09).

One of the radius-enlarging methods of §3.1.  Each tree in the forest
draws m bucketed p-stable hashes, views the m bucket ids of a point as an
integer grid coordinate, assigns the coordinate a Z-order (Morton) value,
and stores ``(z-value, point id)`` in a B-tree.  A query walks a
bidirectional cursor outward from its own z-value: points nearby in
Z-order share long bucket-id prefixes, so they are likely hash collisions
at coarse radii — the Z-order walk *is* the virtual rehashing.

Per the paper's taxonomy (§3.2) the LSB-tree estimates distances at
bucket-to-bucket granularity, which caps its accuracy; the forest of L
trees compensates by union-ing candidates over independent hash draws.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro import kernels
from repro.baselines.base import ANNIndex, BatchResult, QueryResult, aggregate_stats
from repro.bptree.tree import BPlusTree
from repro.core.hashing import LSHFunction
from repro.datasets.distance import point_to_points_distances
from repro.queries import Knn
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.utils.zorder import interleave_bits, zorder_values


@register_index("lsb-forest", "lsb")
class LSBForest(ANNIndex):
    """A forest of LSB-trees.

    Parameters
    ----------
    num_trees:
        Forest size L (the paper sets L from the dataset's page geometry;
        here a small constant suffices).
    m:
        Bucketed hashes per tree (the Z-order dimensionality).
    w:
        Bucket width; ``None`` calibrates to the projection spread.
    budget_fraction:
        Candidates verified per query, as a fraction of n (split across
        the trees' cursor walks).
    """

    name = "LSB-Forest"

    def __init__(
        self,
        *,
        num_trees: int = 4,
        m: int = 8,
        w: float | None = None,
        budget_fraction: float = 0.12,
        bptree_order: int = 64,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if num_trees <= 0:
            raise ValueError(f"num_trees must be positive, got {num_trees}")
        if w is not None and w <= 0:
            raise ValueError(f"bucket width w must be positive, got {w}")
        if not 0.0 < budget_fraction <= 1.0:
            raise ValueError(f"budget_fraction must be in (0, 1], got {budget_fraction}")
        self.num_trees = num_trees
        self.m = m
        self.w = None if w is None else float(w)
        self._w_explicit = w is not None
        self.budget_fraction = float(budget_fraction)
        self.bptree_order = bptree_order
        self._rng = as_generator(seed)
        self._functions: List[LSHFunction] = []
        self._trees: List[BPlusTree] = []
        self._grid_mins: List[np.ndarray] = []
        self._bits: List[int] = []
        # Sorted (z-value, id) mirrors of the trees for the batch path:
        # object dtype because Morton values are arbitrary-precision ints.
        self._sorted_z: List[np.ndarray] = []
        self._sorted_z_ids: List[np.ndarray] = []

    def _calibrated_width(self) -> float:
        sample_size = min(self.n, 1024)
        sample = self.data[self._rng.choice(self.n, size=sample_size, replace=False)]
        directions = self._rng.normal(size=(8, self.d))
        spreads = (sample @ directions.T).std(axis=0)
        return max(2.0 * float(np.median(spreads)), 1e-12)

    def _fit(self) -> None:
        # Recalibrate on every fit unless the caller pinned w: a re-fit may
        # bind a dataset at a different scale than the one w was tuned to.
        if not self._w_explicit:
            self.w = self._calibrated_width()
        self._functions = [
            LSHFunction(self.d, self.m, w=self.w, seed=child)
            for child in spawn_generators(self._rng, self.num_trees)
        ]
        self._trees = []
        self._grid_mins = []
        self._bits = []
        self._sorted_z = []
        self._sorted_z_ids = []
        for function in self._functions:
            grid = function.bucketize(self.data)  # (n, m) ints
            grid_min = grid.min(axis=0)
            shifted = grid - grid_min
            bits = max(1, int(shifted.max()).bit_length() + 1)  # +1 headroom for queries
            z_values = zorder_values(shifted, bits=bits)
            self._trees.append(
                BPlusTree.from_items(zip(z_values, range(self.n)), order=self.bptree_order)
            )
            self._grid_mins.append(grid_min)
            self._bits.append(bits)
            # Stable sort: equal z-values keep id order, which is exactly
            # the duplicate-key order ``from_items``'s stable sort gives
            # the B-tree — the cursor walk and the array walk see the
            # same sequence.
            z_arr = np.asarray(z_values, dtype=object)
            order = np.argsort(z_arr, kind="stable")
            self._sorted_z.append(z_arr[order])
            self._sorted_z_ids.append(np.asarray(order, dtype=np.int64))

    def _query_zvalue(self, tree_index: int, q: np.ndarray) -> int:
        # Shift by the same per-dimension minimum used at build time (NOT
        # zorder_values, which would re-shift a single row to the origin).
        grid = np.atleast_1d(self._functions[tree_index].bucketize(q))
        shifted = np.clip(grid - self._grid_mins[tree_index], 0, None)
        limit = (1 << self._bits[tree_index]) - 1
        shifted = np.minimum(shifted, limit)
        return interleave_bits([int(v) for v in shifted], bits=self._bits[tree_index])

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        budget = max(k, int(math.ceil(self.budget_fraction * self.n)))
        per_tree = max(k, budget // self.num_trees)
        seen: set = set()
        candidates: List[int] = []
        for tree_index, tree in enumerate(self._trees):
            z_query = self._query_zvalue(tree_index, q)
            cursor = tree.cursor(z_query)
            taken = 0
            # Alternate the cursor outward: the entries nearest in Z-order
            # are the likeliest hash collisions at the coarsest radii.
            while taken < per_tree:
                left = cursor.peek_left()
                right = cursor.peek_right()
                if left is None and right is None:
                    break
                if right is None or (
                    left is not None and (z_query - left[0]) <= (right[0] - z_query)
                ):
                    entry = cursor.move_left()
                else:
                    entry = cursor.move_right()
                taken += 1
                point_id = entry[1]
                if point_id not in seen:
                    seen.add(point_id)
                    candidates.append(point_id)
        if not candidates:
            candidates = self._fallback_candidates(k)
        ids = np.asarray(candidates, dtype=np.int64)
        dists = point_to_points_distances(q, self.data[ids])
        order = np.lexsort((ids, dists))[:k]
        return QueryResult(
            ids=ids[order],
            distances=dists[order],
            stats={"candidates": float(ids.size)},
        )

    def _fallback_candidates(self, k: int) -> List[int]:
        """Degenerate miss (every tree empty-walked): a random probe so
        the contract holds — drawn from the live ids under tombstones,
        bit-identical to sampling ``range(n)`` without them."""
        if self._tombstones:
            live = self.live_ids()
            return list(self._rng.choice(live, size=min(live.size, 4 * k), replace=False))
        return list(self._rng.choice(self.n, size=min(self.n, 4 * k), replace=False))

    # ------------------------------------------------------------------
    # batched kNN
    # ------------------------------------------------------------------

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Sorted-array batch path.

        The cursor walk around a query's z-value always consumes a
        contiguous window of the z-sorted order, so the batch path
        replaces each walk with a merge-selection over two sorted
        distance sequences (``searchsorted`` rank arithmetic picks how
        many entries each side of the query contributes), unions the
        per-tree windows, and finishes with one gathered verification +
        ``group_topk`` kernel over the pooled candidates — byte-identical
        to the per-query cursor loop, ties and all.
        """
        kernel = kernels.active()
        k = spec.k
        num_queries = queries.shape[0]
        budget = max(k, int(math.ceil(self.budget_fraction * self.n)))
        per_tree = max(k, budget // self.num_trees)
        counts = np.empty(num_queries, dtype=np.int64)
        id_blocks: List[np.ndarray] = []
        for qi in range(num_queries):
            windows = [
                self._window_ids(
                    tree_index, self._query_zvalue(tree_index, queries[qi]), per_tree
                )
                for tree_index in range(self.num_trees)
            ]
            candidates = np.unique(np.concatenate(windows))
            if candidates.size == 0:
                candidates = np.asarray(self._fallback_candidates(k), dtype=np.int64)
            counts[qi] = candidates.size
            id_blocks.append(candidates)
        ids = np.concatenate(id_blocks) if id_blocks else np.empty(0, dtype=np.int64)
        rep_q = np.repeat(np.arange(num_queries, dtype=np.int64), counts)
        dists = kernel.verify_distances(self.data, ids, queries, rep_q)
        lims, top_ids, top_dists = kernel.group_topk(rep_q, ids, dists, num_queries, k)
        out_ids = np.full((num_queries, k), -1, dtype=np.int64)
        out_dists = np.full((num_queries, k), np.inf, dtype=np.float64)
        per_query = []
        for qi in range(num_queries):
            lo, hi = int(lims[qi]), int(lims[qi + 1])
            out_ids[qi, : hi - lo] = top_ids[lo:hi]
            out_dists[qi, : hi - lo] = top_dists[lo:hi]
            per_query.append({"candidates": float(counts[qi])})
        return BatchResult(
            ids=out_ids,
            distances=out_dists,
            stats=aggregate_stats(tuple(per_query)),
            per_query_stats=tuple(per_query),
        )

    def _window_ids(self, tree_index: int, z_query: int, per_tree: int) -> np.ndarray:
        """The ids the alternating cursor walk takes from one tree —
        computed by merge-rank arithmetic over the two sorted distance
        sequences instead of walking the cursor.  Returned in positional
        (not walk) order: the callers only union the ids and cut by the
        canonical ``(distance, id)`` order, so the walk order is
        irrelevant to the result.
        """
        z_sorted = self._sorted_z[tree_index]
        z_ids = self._sorted_z_ids[tree_index]
        start = int(np.searchsorted(z_sorted, z_query, side="left"))
        # The walk takes at most per_tree entries total, so at most
        # per_tree from either side — bounding the slices keeps the
        # arbitrary-precision subtraction O(per_tree), not O(n).
        left_lo = max(0, start - per_tree)
        if start > 0:
            lefts = z_query - z_sorted[start - 1 : left_lo - 1 if left_lo else None : -1]
        else:
            lefts = z_sorted[:0]
        rights = z_sorted[start : start + per_tree] - z_query
        # left i is consumed at merge rank i + |{rights with dist < d_i}|
        # (a tie goes left first); right j at rank j + |{lefts ≤ d_j}|.
        n_left = n_right = 0
        if lefts.size:
            ranks = np.arange(lefts.size) + np.searchsorted(rights, lefts, side="left")
            n_left = int(np.sum(ranks < per_tree))
        if rights.size:
            ranks = np.arange(rights.size) + np.searchsorted(lefts, rights, side="right")
            n_right = int(np.sum(ranks < per_tree))
        return z_ids[start - n_left : start + n_right]
