"""The exact answers by difference tensors — the reference twin of the
one exact scan in :mod:`repro.datasets.distance`.

Every distance here is reduced from ``a[i] − b[j]`` alone, over the whole
``block × n × d`` tensor, with no norm-expansion estimate deciding
anything: kNN, range and closest pairs are the plain brute force the
scan's bands must reproduce byte for byte.  ``knn_rows`` is that kNN
over any two matrices, ``range_fallback`` and
``closest_pairs_fallback`` are the index fallbacks as they were before
the scan (``ANNIndex._run_range`` / ``_closest_pairs``), ``knn_fallback``
the same brute force for kNN, and ``lscan_query`` LScan's former
per-query loop.  :func:`reference_exact` swaps the three fallbacks onto
one index, so its public ``search`` / ``range_search`` /
``closest_pairs`` (validation, tombstone stats, sharded merges) stay the
product's around them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List
from unittest import mock

import numpy as np

from repro.baselines.base import BatchResult, QueryResult, aggregate_stats
from repro.datasets.distance import point_to_points_distances
from repro.queries import ClosestPairResult, RangeResult, sort_pairs

#: Cap on the entries of one block × n × d difference tensor (~32 MB).
BLOCK_ENTRIES = 4_000_000


def pairwise_distances_rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix via explicit difference tensors:
    every (i, j) entry is reduced from ``a[i] − b[j]`` alone, so it is
    the same float against any subset of *b*'s rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _block_rows(index) -> int:
    return max(1, BLOCK_ENTRIES // max(1, index.n * index.d))


def _alive(index):
    return index._tombstones.alive_mask(index.ntotal) if index._tombstones else None


def knn_rows(queries: np.ndarray, points: np.ndarray, k: int, alive=None):
    """``(ids, distances)``, both ``(q, k)``: each query row's k nearest
    rows of *points* by ``(distance, id)``, leaving out the rows the
    boolean mask *alive* marks False — the brute force the scan's
    ``chunked_knn`` must equal."""
    live = np.arange(points.shape[0]) if alive is None else np.flatnonzero(alive)
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    dists = np.empty((queries.shape[0], k), dtype=np.float64)
    block_rows = max(1, BLOCK_ENTRIES // max(1, points.size))
    for start in range(0, queries.shape[0], block_rows):
        block = pairwise_distances_rowwise(queries[start : start + block_rows], points[live])
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        for row, (row_dists, bound) in enumerate(zip(block, kth)):
            near = np.flatnonzero(row_dists <= bound)  # holds all k best
            best = near[np.lexsort((near, row_dists[near]))][:k]
            ids[start + row] = live[best]
            dists[start + row] = row_dists[best]
    return ids, dists


def knn_fallback(index, queries: np.ndarray, spec) -> BatchResult:
    """k nearest live rows per query by ``(distance, id)``; candidates = nlive."""
    ids, dists = knn_rows(queries, index.data, spec.k, _alive(index))
    per_query = tuple({"candidates": float(index.nlive)} for _ in range(queries.shape[0]))
    return BatchResult(
        ids=ids, distances=dists, stats=aggregate_stats(per_query), per_query_stats=per_query
    )


def range_fallback(index, queries: np.ndarray, spec) -> RangeResult:
    """Every live row within ``spec.r``, sorted by ``(distance, id)``."""
    alive = _alive(index)
    block_rows = _block_rows(index)
    lims = [0]
    id_chunks: List[np.ndarray] = []
    dist_chunks: List[np.ndarray] = []
    per_query: List[Dict[str, float]] = []
    for start in range(0, queries.shape[0], block_rows):
        dists = pairwise_distances_rowwise(queries[start : start + block_rows], index.data)
        for row in range(dists.shape[0]):
            within = dists[row] <= spec.r
            if alive is not None:
                within &= alive
            inside = np.flatnonzero(within)
            row_dists = dists[row][inside]
            order = np.lexsort((inside, row_dists))
            id_chunks.append(inside[order].astype(np.int64))
            dist_chunks.append(row_dists[order])
            lims.append(lims[-1] + inside.size)
            per_query.append({"candidates": float(index.nlive), "returned": float(inside.size)})
    return RangeResult(
        lims=np.asarray(lims, dtype=np.int64),
        ids=np.concatenate(id_chunks),
        distances=np.concatenate(dist_chunks),
        stats=aggregate_stats(tuple(per_query)),
        per_query_stats=tuple(per_query),
    )


def closest_pairs_fallback(index, m: int) -> ClosestPairResult:
    """The m closest live pairs by ``(distance, i, j)``: a self-join over
    the gathered live rows, ids mapped back; every pair counts as
    verified."""
    live = index.live_ids() if index._tombstones else None
    data = index.data if live is None else index.data[live]
    n = data.shape[0]
    block_rows = _block_rows(index)
    best_pairs = np.empty((0, 2), dtype=np.int64)
    best_dists = np.empty(0, dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        dists = pairwise_distances_rowwise(data[start:stop], data)
        rows, cols = np.nonzero(np.arange(n)[None, :] > np.arange(start, stop)[:, None])
        block_pairs = np.column_stack([rows + start, cols]).astype(np.int64)
        best_pairs, best_dists = sort_pairs(
            np.concatenate([best_pairs, block_pairs]),
            np.concatenate([best_dists, dists[rows, cols]]),
            m,
        )
    if live is not None and best_pairs.size:
        best_pairs = live[best_pairs]
    pair_count = n * (n - 1) // 2
    return ClosestPairResult(
        pairs=best_pairs,
        distances=best_dists,
        stats={"candidate_pairs": float(pair_count), "verified": float(pair_count)},
    )


def lscan_query(index, q: np.ndarray, k: int) -> QueryResult:
    """LScan's former per-query loop: one difference scan of the live
    subset, ``argpartition`` then a stable sort on distance (ties stay in
    partition order, not ``(distance, id)``)."""
    subset = index._subset
    if index._tombstones:
        subset = subset[~index._tombstones.contains(subset)]
    dists = point_to_points_distances(q, index.data[subset])
    k_eff = min(k, subset.size)
    part = np.argpartition(dists, k_eff - 1)[:k_eff]
    chosen = part[np.argsort(dists[part], kind="stable")]
    return QueryResult(
        ids=subset[chosen], distances=dists[chosen], stats={"candidates": float(subset.size)}
    )


@contextmanager
def reference_exact(index):
    """Answer *index*'s kNN, range and closest pairs by the difference
    tensors above for the duration of the block."""
    with mock.patch.object(
        index, "_run_knn", lambda queries, spec: knn_fallback(index, queries, spec)
    ), mock.patch.object(
        index, "_run_range", lambda queries, spec: range_fallback(index, queries, spec)
    ), mock.patch.object(
        index, "_closest_pairs", lambda m: closest_pairs_fallback(index, m)
    ):
        yield index
