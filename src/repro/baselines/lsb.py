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

Each tree is kept as its sorted ``(z-value, id)`` arrays, the B-tree's leaf
level: a cursor walk always consumes a contiguous window of that order, so
kNN finds each walk's window by rank arithmetic instead of walking
(:meth:`LSBForest._window_ids`); ``tests/oracles/baseline_loops.py`` walks
the B+-tree cursors as the test reference.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult
from repro.core.hashing import LSHFunction
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
        self._rng = as_generator(seed)
        self._functions: List[LSHFunction] = []
        self._grid_mins: List[np.ndarray] = []
        self._bits: List[int] = []
        # Sorted (z-value, id) arrays, one pair per tree: object dtype
        # because Morton values are arbitrary-precision ints.
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
            self._grid_mins.append(grid_min)
            self._bits.append(bits)
            # Stable sort: equal z-values keep id order, the duplicate-key
            # order of a B-tree bulk-loaded from (z-value, id) pairs.
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

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Union each tree's cursor window around the query's z-value, then
        verify the pool (:meth:`~repro.baselines.base.ANNIndex._verify_pooled`)."""
        k = spec.k
        budget = max(k, int(math.ceil(self.budget_fraction * self.n)))
        per_tree = max(k, budget // self.num_trees)

        def candidates(q: np.ndarray) -> np.ndarray:
            return np.unique(
                np.concatenate(
                    [
                        self._window_ids(t, self._query_zvalue(t, q), per_tree)
                        for t in range(self.num_trees)
                    ]
                )
            )

        return self._verify_pooled(queries, k, candidates)

    def _window_ids(self, tree_index: int, z_query: int, per_tree: int) -> np.ndarray:
        """The ids a cursor walk takes from one tree: *per_tree* steps
        outward from *z_query*, each to the nearer side in Z-order (a tie
        goes left) — computed by merge-rank arithmetic over the two sorted
        distance sequences instead of walking.  Returned in positional
        (not walk) order: the caller only unions the ids and cuts by the
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
