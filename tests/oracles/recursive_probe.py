"""Per-query pointer-tree oracles for PM-LSH's three query types.

These are the recursive traversals ``PMLSH`` used to ship next to the
flat level-synchronous path: Algorithm 2's radius-enlarging probe, the
(r, c)-ball range probe and the closest-pair join, each walking the
pointer tree of :mod:`tests.oracles.pointer_tree` (or brute force) one
query at a time.  The candidate sets are defined by projected distances alone, not
by tree shape — nor by whether a row is in the tree or in the flat
snapshot's unindexed tail — so the product's batched flat path must
answer with the same bytes — ids, distances and per-query stats.
"""

from __future__ import annotations

from typing import List, Set, Tuple
from unittest import mock

import numpy as np

from repro.baselines.base import BatchResult, QueryResult
from repro.core.radius import range_candidate_budget
from repro.datasets.distance import chunked_knn, point_to_points_distances
from repro.pmtree.flat import TraversalStats
from repro.queries import Knn, Range, RangeResult
from tests.oracles.pointer_tree import PointerPMTree


def _dead_set(index):
    return index.tombstones.as_set() if index.tombstones else None


def full_tree(index) -> PointerPMTree:
    """A pointer tree over *every* row — the indexed rows and the tail
    together — with the index's pivots."""
    return PointerPMTree.build(
        index.projected,
        capacity=index.params.node_capacity,
        use_rings=index.params.use_rings,
        use_parent_filter=index.params.use_parent_filter,
        pivots=index.flat_tree.pivots,
        seed=0,
    )


def _probe(index, tree, q, projected_query, k, budget, initial_radius, c, t) -> QueryResult:
    """Algorithm 2 for one query: fetch the closest unseen points inside
    the enlarged projected ball, verify, test the two stop conditions."""
    dead = _dead_set(index)
    r = initial_radius
    seen: Set[int] = set()
    collected: List[Tuple[int, float]] = []  # (id, true distance)
    rounds = 0
    for _ in range(index.params.max_iterations):
        rounds += 1
        # Termination test 1 (line 4): k verified points within c·r.
        if sum(1 for _, dist in collected if dist <= c * r) >= k:
            break
        matches = tree.range_query(
            projected_query,
            t * r,
            limit=max(0, budget - len(seen)),
            exclude=seen if not dead else seen | dead,
        )
        ids = np.asarray([pid for pid, _ in matches], dtype=np.int64)
        if ids.size:
            true_dists = point_to_points_distances(q, index.data[ids])
            for pid, dist in zip(ids, true_dists):
                seen.add(int(pid))
                collected.append((int(pid), float(dist)))
        # Termination test 2 (line 9): candidate budget exhausted.
        if len(seen) >= budget:
            break
        r *= c
    collected.sort(key=lambda pair: (pair[1], pair[0]))
    top = collected[:k]
    return QueryResult(
        ids=np.asarray([pid for pid, _ in top], dtype=np.int64),
        distances=np.asarray([dist for _, dist in top], dtype=np.float64),
        stats={
            "candidates": float(len(seen)),
            "rounds": float(rounds),
            "final_radius": float(r),
        },
    )


def knn(
    index, queries: np.ndarray, spec: Knn | int, tree: PointerPMTree | None = None
) -> BatchResult:
    """``index.run(queries, Knn(...))`` by per-query pointer-tree probes
    (of *tree*, which must be :func:`full_tree` of *index*: pass one to
    read its counters afterwards)."""
    spec = spec if isinstance(spec, Knn) else Knn(k=int(spec))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    k = spec.k
    c = spec.c if spec.c is not None else index.params.c
    solved = index.solved_for(spec.c)
    budget = spec.budget if spec.budget is not None else index.candidate_budget(k, solved)
    budget = max(budget, k)
    initial_radius = index._initial_radius(k, solved)
    projected = np.atleast_2d(index.projection.project(queries))
    tree = full_tree(index) if tree is None else tree
    return BatchResult.from_queries(
        [
            _probe(index, tree, q, pq, k, budget, initial_radius, c, solved.t)
            for q, pq in zip(queries, projected)
        ],
        k=k,
    )


def range_search(index, queries: np.ndarray, spec: Range) -> RangeResult:
    """``index.run(queries, Range(...))`` by per-query pointer-tree probes."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    c = spec.c if spec.c is not None else index.params.c
    solved = index.solved_for(spec.c)
    projected = np.atleast_2d(index.projection.project(queries))
    budget = (
        spec.budget
        if spec.budget is not None
        else range_candidate_budget(
            index.distance_distribution, index.nlive, solved.beta, c * spec.r
        )
    )
    dead = _dead_set(index)
    tree = full_tree(index)
    results: List[QueryResult] = []
    for q, projected_query in zip(queries, projected):
        candidates = tree.range_query(
            projected_query, solved.t * c * spec.r, limit=budget, exclude=dead
        )
        ids = np.asarray([pid for pid, _ in candidates], dtype=np.int64)
        true_dists = point_to_points_distances(q, index.data[ids])
        inside = true_dists <= c * spec.r
        ids, true_dists = ids[inside], true_dists[inside]
        order = np.lexsort((ids, true_dists))
        results.append(
            QueryResult(
                ids=ids[order],
                distances=true_dists[order],
                stats={
                    "candidates": float(len(candidates)),
                    "budget": float(budget),
                    "returned": float(ids.size),
                },
            )
        )
    return RangeResult.from_queries(results)


def closest_pairs(index, m: int, budget: int | None = None):
    """``index.closest_pairs(m)`` with every point's projected
    neighbourhood taken by blocked brute force instead of the tree."""
    live = index.live_ids()

    def brute_knn(block: np.ndarray, k: int):
        ids, dists = chunked_knn(block, index.projected[live], k)
        none = np.zeros(block.shape[0], dtype=np.int64)  # no tree work
        work = TraversalStats(none, none, np.zeros(0, dtype=np.int64), none)
        return live[ids], dists, work

    with mock.patch.object(index.flat_tree, "batch_knn", brute_knn):
        return index.closest_pairs(m, budget=budget)
