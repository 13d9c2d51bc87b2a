"""Per-query reference loops for the four batch baselines.

C2LSH, E2LSH, LSB-Forest and QALSH answer kNN through one vectorised
``_run_knn`` each.  The functions here answer one query at a time the
way the published algorithms describe it, and the identity tests compare
the two byte for byte — ids, distances and stats:

* ``qalsh_query`` and ``lsb_query`` walk bidirectional cursors over one
  :class:`~tests.oracles.bptree.BPlusTree` per hash function / tree, the
  structure the papers index with;
* ``c2lsh_query`` recounts grid-cell collisions per round over the sorted
  projections, and ``e2lsh_query`` unions the query's buckets.

Each loop drops tombstoned ids where it gathers candidates, as the
product does: the collision counters start with the dead ids marked
verified, and the bucket and cursor walks treat them as already seen (a
cursor step onto a dead entry still counts toward the walk).  E2LSH and
LSB-Forest draw from the index's shared generator through
``index._fallback_candidates`` when a query finds no live candidate, so a
loop over the rows consumes it in the same order as the batch path.

:func:`run` answers ``index.run(queries, spec)`` with the index's
``_run_knn`` swapped for a loop over the matching reference.
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Tuple
from unittest import mock

import numpy as np

from repro.baselines.base import BatchResult, QueryResult
from repro.baselines.c2lsh import C2LSH
from repro.baselines.e2lsh import E2LSH
from repro.baselines.lsb import LSBForest
from repro.baselines.qalsh import QALSH
from repro.datasets.distance import point_to_points_distances
from tests.oracles.bptree import BPlusTree

#: Fan-out of the reference trees (the walks do not depend on it).
TREE_ORDER = 64


def _verify_fresh(index, q, counts, verified, verified_mask) -> None:
    """Verify every unverified point whose collision count reached the
    threshold, appending ``(id, distance)`` pairs to *verified*."""
    fresh = np.flatnonzero((counts >= index.collision_threshold) & ~verified_mask)
    if fresh.size == 0:
        return
    verified_mask[fresh] = True
    dists = point_to_points_distances(q, index.data[fresh])
    verified.extend((int(pid), float(dist)) for pid, dist in zip(fresh, dists))


def _cut(verified: List[Tuple[int, float]], k: int, stats) -> QueryResult:
    verified.sort(key=lambda pair: (pair[1], pair[0]))
    top = verified[:k]
    return QueryResult(
        ids=np.asarray([pid for pid, _ in top], dtype=np.int64),
        distances=np.asarray([dist for _, dist in top], dtype=np.float64),
        stats=stats,
    )


def _verify_all(index, q, candidates, k) -> QueryResult:
    ids = np.asarray(candidates, dtype=np.int64)
    dists = point_to_points_distances(q, index.data[ids])
    order = np.lexsort((ids, dists))[:k]
    return QueryResult(
        ids=ids[order], distances=dists[order], stats={"candidates": float(ids.size)}
    )


# ----------------------------------------------------------------------
# QALSH: one B+-tree per hash function, cursors widened round by round
# ----------------------------------------------------------------------


def qalsh_trees(index: QALSH) -> List[BPlusTree]:
    """One tree per hash function over the raw projections ``a_i·o``."""
    return [
        BPlusTree.from_items(
            zip(index.projections[:, i].tolist(), range(index.n)), order=TREE_ORDER
        )
        for i in range(index.m)
    ]


def qalsh_query(index: QALSH, q: np.ndarray, k: int, trees=None) -> QueryResult:
    trees = qalsh_trees(index) if trees is None else trees
    query_proj = index.projection.project(q)  # (m,)
    collisions = np.zeros(index.n, dtype=np.int32)
    verified: List[Tuple[int, float]] = []
    verified_mask = ~index.tombstones.alive_mask(index.n)
    budget = int(math.ceil(index.beta * index.n)) + k
    radius = max(index._projection_spread / 16.0, 1e-12)
    cursors = [tree.cursor(float(query_proj[i])) for i, tree in enumerate(trees)]
    rounds = 0
    for _ in range(64):
        rounds += 1
        half_window = index.w * radius / 2.0
        # Consume every cursor entry inside ±half_window of the query's
        # projection and bump its collision count.
        for i, cursor in enumerate(cursors):
            center = float(query_proj[i])
            lo, hi = center - half_window, center + half_window
            while True:
                entry = cursor.peek_right()
                if entry is None or entry[0] > hi:
                    break
                cursor.move_right()
                collisions[entry[1]] += 1
            while True:
                entry = cursor.peek_left()
                if entry is None or entry[0] < lo:
                    break
                cursor.move_left()
                collisions[entry[1]] += 1
        _verify_fresh(index, q, collisions, verified, verified_mask)
        within = sum(1 for _, dist in verified if dist <= index.c * radius)
        if within >= k or len(verified) >= budget:
            break
        radius *= index.c
    stats = {"candidates": float(len(verified)), "m": float(index.m), "rounds": float(rounds)}
    return _cut(verified, k, stats)


# ----------------------------------------------------------------------
# C2LSH: grid cells recounted from scratch every round
# ----------------------------------------------------------------------


def _count_collisions(index: C2LSH, query_shifted: np.ndarray, cell_width: float) -> np.ndarray:
    """Collision counts for the bucket-aligned cells of width *cell_width*.

    A point collides on hash i iff it falls into the same grid cell as
    the query: ``⌊x/cell⌋ == ⌊q/cell⌋`` — an interval scan on the
    sorted projections.
    """
    counts = np.zeros(index.n, dtype=np.int32)
    for i in range(index.m):
        cell = math.floor(query_shifted[i] / cell_width)
        lo = cell * cell_width
        hi = lo + cell_width
        keys = index._sorted_raw[i]
        start = int(np.searchsorted(keys, lo, side="left"))
        stop = int(np.searchsorted(keys, hi, side="left"))
        if stop > start:
            counts[index._sorted_ids[i][start:stop]] += 1
    return counts


def c2lsh_query(index: C2LSH, q: np.ndarray, k: int) -> QueryResult:
    query_shifted = (index._query_directions @ q) + index._offsets  # (m,)
    verified: List[Tuple[int, float]] = []
    verified_mask = ~index.tombstones.alive_mask(index.n)
    budget = int(math.ceil(index.beta * index.n)) + k
    scale = 1.0  # radius multiplier R = 1, c, c², ... in spread units
    rounds = 0
    for _ in range(64):
        rounds += 1
        cell_width = index._unit_width * scale
        counts = _count_collisions(index, query_shifted, cell_width)
        _verify_fresh(index, q, counts, verified, verified_mask)
        radius_now = index._unit_width * scale / index.w  # grid cell ~ w·R
        within = sum(1 for _, dist in verified if dist <= index.c * radius_now)
        if within >= k or len(verified) >= budget:
            break
        scale *= index.c
    stats = {"candidates": float(len(verified)), "m": float(index.m), "rounds": float(rounds)}
    return _cut(verified, k, stats)


# ----------------------------------------------------------------------
# E2LSH: the union of the query's buckets
# ----------------------------------------------------------------------


def e2lsh_query(index: E2LSH, q: np.ndarray, k: int) -> QueryResult:
    candidate_ids: List[int] = []
    seen = index.tombstones.as_set()
    for function, table in zip(index._functions, index._tables):
        for point_id in table.get(function.compound_key(q), []):
            if point_id not in seen:
                seen.add(point_id)
                candidate_ids.append(point_id)
    if not candidate_ids:
        candidate_ids = index._fallback_candidates(k)
    return _verify_all(index, q, candidate_ids, k)


# ----------------------------------------------------------------------
# LSB-Forest: one B+-tree of (z-value, id) per tree, alternating cursors
# ----------------------------------------------------------------------


def lsb_trees(index: LSBForest) -> List[BPlusTree]:
    """One tree per LSB-tree, bulk-loaded from its ``(z-value, id)`` pairs."""
    return [
        BPlusTree.from_items(
            zip(index._sorted_z[t].tolist(), index._sorted_z_ids[t].tolist()),
            order=TREE_ORDER,
        )
        for t in range(index.num_trees)
    ]


def lsb_query(index: LSBForest, q: np.ndarray, k: int, trees=None) -> QueryResult:
    trees = lsb_trees(index) if trees is None else trees
    budget = max(k, int(math.ceil(index.budget_fraction * index.n)))
    per_tree = max(k, budget // index.num_trees)
    seen = index.tombstones.as_set()
    candidates: List[int] = []
    for tree_index, tree in enumerate(trees):
        z_query = index._query_zvalue(tree_index, q)
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
        candidates = index._fallback_candidates(k)
    return _verify_all(index, q, candidates, k)


# ----------------------------------------------------------------------
# index.run through the references
# ----------------------------------------------------------------------


def reference_query(index):
    """The per-query reference for *index*, its trees built once."""
    if isinstance(index, QALSH):
        return partial(qalsh_query, index, trees=qalsh_trees(index))
    if isinstance(index, LSBForest):
        return partial(lsb_query, index, trees=lsb_trees(index))
    if isinstance(index, C2LSH):
        return partial(c2lsh_query, index)
    if isinstance(index, E2LSH):
        return partial(e2lsh_query, index)
    raise TypeError(f"no reference loop for {type(index).__name__}")


def run(index, queries: np.ndarray, spec) -> BatchResult:
    """``index.run(queries, spec)`` answered row by row by the reference."""
    query = reference_query(index)

    def loop(block: np.ndarray, block_spec) -> BatchResult:
        return BatchResult.from_queries([query(q, block_spec.k) for q in block], k=block_spec.k)

    with mock.patch.object(index, "_run_knn", loop):
        return index.run(queries, spec)
