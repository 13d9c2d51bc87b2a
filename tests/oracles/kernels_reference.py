"""Straight-line NumPy definition of every hot kernel — the test oracle.

Each function is the arithmetic of one :mod:`repro.kernels.fast` kernel
written the obvious way (full-width masks, one gather, per-group Python
loops).  ``tests/kernels/test_differential.py`` asserts the product
kernels return these bytes exactly; index-level tests monkeypatch these
functions onto ``repro.kernels.active()`` to pin the composition.  Not
importable from ``src/`` — product code has one implementation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


def closest_mask(dists: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k entries smallest by ``(distance, id)`` — a
    full canonical sort, the definition the product's selection must equal."""
    mask = np.zeros(dists.size, dtype=bool)
    mask[np.lexsort((ids, dists))[: max(k, 0)]] = True
    return mask


# The band helpers below are uncounted like ``closest_mask``: the product
# imports them from ``repro.kernels.fast`` directly.


def sq_distance_estimates(
    data: np.ndarray,
    sqnorm: np.ndarray,
    ids: np.ndarray,
    query: np.ndarray,
    q_sqnorm: float,
) -> np.ndarray:
    """``‖x‖² − 2·x·q + ‖q‖²`` per gathered row: one gather, one GEMV."""
    return sqnorm[ids] - 2.0 * (data[ids] @ query) + q_sqnorm


def limit_band(keys: np.ndarray, tol: float, limit: int):
    """``(lo, hi)`` of a cut to *limit* on keys within *tol* of the exact
    squared distances — by a full sort: K is the limit-th smallest key,
    the band is ``[K − 2·tol, K + 2·tol]``; nothing is kept at a limit of
    0 and everything at a limit the pool does not exceed."""
    if limit <= 0:
        return -np.inf, -np.inf
    if limit >= keys.size:
        return np.inf, np.inf
    kth = float(np.sort(keys)[limit - 1])
    return kth - 2.0 * tol, kth + 2.0 * tol


def leaf_prune(
    *,
    member: np.ndarray,
    rep_q: np.ndarray,
    rep_pd: Optional[np.ndarray],
    leaf_pd: np.ndarray,
    ring_cols: List[np.ndarray],
    query_rings: Optional[np.ndarray],
    radius: float,
    use_parent_filter: bool,
    dim: int,
) -> np.ndarray:
    """Eq. 5 leaf-member filters: parent-distance test, then ring tests,
    each ``|a − b| ≤ r`` read as ``|a − b| ≤ r + u·(a + b + r)`` with
    ``u = (dim + 5)·eps``.

    One row per live (query, leaf-member) pair; returns the keep mask.
    The parent-distance filter (``|d(q, par) − o.PD| ≤ r``) runs first —
    two scalar gathers — so the ring gathers only touch its survivors;
    the ring filter (``∀i |d(q, p_i) − d(o, p_i)| ≤ r``) narrows the
    survivor set one pivot at a time.
    """
    u = (dim + 5) * np.finfo(np.float64).eps
    keep = np.ones(member.size, dtype=bool)
    if use_parent_filter and rep_pd is not None:
        known = ~np.isnan(rep_pd)
        a, b = leaf_pd[member[known]], rep_pd[known]
        keep[known] &= np.abs(a - b) <= radius + u * (a + b + radius)
    if query_rings is not None:
        sub = np.flatnonzero(keep)
        for pivot in range(len(ring_cols)):
            if sub.size == 0:
                break
            a = ring_cols[pivot][member[sub]]
            b = query_rings[rep_q[sub], pivot]
            ring_ok = np.abs(a - b) <= radius + u * (a + b + radius)
            keep[sub[~ring_ok]] = False
            sub = sub[ring_ok]
    return keep


def inner_prune(
    *,
    eidx: np.ndarray,
    rep_q: np.ndarray,
    rep_pd: Optional[np.ndarray],
    entry_pd: np.ndarray,
    entry_radius: np.ndarray,
    hr_min: np.ndarray,
    hr_max: np.ndarray,
    query_rings: Optional[np.ndarray],
    radius: float,
    use_parent_filter: bool,
    dim: int,
) -> np.ndarray:
    """Eq. 5 routing-entry filters: parent-distance test, then hyper-ring
    interval tests, over one row per (query, routing-entry) pair, with
    the same ``u = (dim + 5)·eps`` slack as :func:`leaf_prune`.

    Survivors still owe a centre-distance computation and the sphere
    test, which the caller performs (it charges ``dist_comps``).
    """
    u = (dim + 5) * np.finfo(np.float64).eps
    keep = np.ones(eidx.size, dtype=bool)
    if use_parent_filter and rep_pd is not None:
        known = ~np.isnan(rep_pd)
        a, b = entry_pd[eidx[known]], rep_pd[known]
        reach = radius + entry_radius[eidx[known]]
        keep[known] &= np.abs(a - b) <= reach + u * (a + b + reach)
    if query_rings is not None:
        rings_q = query_rings[rep_q]
        lo, hi = hr_min[eidx], hr_max[eidx]
        ring_ok = (lo <= rings_q + radius + u * (lo + rings_q + radius)) & (
            hi >= rings_q - radius - u * (hi + rings_q + radius)
        )
        keep &= ring_ok.all(axis=1)
    return keep


def pair_distances(rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
    """Euclidean distance per (point-row, query-row) pair.

    *rows* is consumed (clobbered in place) — callers pass a fresh gather.
    Each row reduces independently, so chunked evaluation is bit-identical.
    """
    np.subtract(rows, query_rows, out=rows)
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def verify_distances(
    data: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    rep_q: np.ndarray,
) -> np.ndarray:
    """Gathered candidate verification: ``‖data[ids[i]] − queries[rep_q[i]]‖``.

    The row-wise reduction matches
    :func:`repro.datasets.distance.point_to_points_distances` bit for bit,
    so batched verification equals the per-query loops it replaces.
    """
    diff = data[ids] - queries[rep_q]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def budget_cut(
    q: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    counts: np.ndarray,
    lims: np.ndarray,
    limits: np.ndarray,
) -> Optional[np.ndarray]:
    """Per-query candidate-limit cut over a pooled, query-grouped batch.

    Keeps each over-budget query's ``limits[q]`` closest matches by the
    canonical ``(distance, id)`` order (Algorithm 2's ``⌈βn⌉+k`` cap).
    Returns a keep mask over the pool, or ``None`` when no query exceeds
    its limit.  Input must be grouped by query (``lims`` CSR offsets).
    """
    capped = np.flatnonzero(counts > limits)
    if capped.size == 0:
        return None
    keep = np.ones(q.size, dtype=bool)
    for query in capped:
        lo, hi = int(lims[query]), int(lims[query + 1])
        keep[lo:hi] = closest_mask(dists[lo:hi], ids[lo:hi], int(limits[query]))
    return keep


def group_topk(
    q: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    num_queries: int,
    k: int,
):
    """Per-query k smallest candidates by ``(distance, id)``, sorted.

    Input is one pooled candidate list grouped by query (ascending ``q``);
    output is CSR ``(lims, ids, dists)`` with each query's survivors in
    canonical order.  This is the final cut of every batched baseline.
    """
    counts = np.bincount(q, minlength=num_queries)
    lims_in = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    taken = np.minimum(counts, k)
    lims = np.concatenate([[0], np.cumsum(taken)]).astype(np.int64)
    out_ids = np.empty(int(lims[-1]), dtype=ids.dtype)
    out_dists = np.empty(int(lims[-1]), dtype=dists.dtype)
    for query in range(num_queries):
        lo, hi = int(lims_in[query]), int(lims_in[query + 1])
        if hi == lo:
            continue
        order = np.lexsort((ids[lo:hi], dists[lo:hi]))[: int(taken[query])]
        olo, ohi = int(lims[query]), int(lims[query + 1])
        out_ids[olo:ohi] = ids[lo:hi][order]
        out_dists[olo:ohi] = dists[lo:hi][order]
    return lims, out_ids, out_dists


def sampled_project(
    points: np.ndarray,
    sample_idx: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """FastLSH-style sampled projection: each of the m hash functions
    reads only ``s`` sampled coordinates (``sample_idx``/``weights`` are
    ``(m, s)``), cutting per-point hashing from O(d·m) toward O(s·m).

    The contraction is a single ``einsum("nms,ms->nm")`` over the
    gathered ``(n, m, s)`` tensor.  The gather is forced C-contiguous
    first — einsum's reduction order follows memory layout, so pinning
    the layout is what pins the bits across backends.
    """
    points = np.atleast_2d(points)
    gathered = np.ascontiguousarray(points[:, sample_idx])
    return np.einsum("nms,ms->nm", gathered, weights)
