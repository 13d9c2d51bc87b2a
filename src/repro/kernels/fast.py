"""The hot kernels: fused, chunked, shape-adaptive NumPy.

Every function here is pinned byte for byte to a straight-line
reference definition kept under ``tests/oracles/kernels_reference.py``
(``tests/kernels/`` drives both with adversarial inputs).  What makes
these the fast form of that contract:

- Pruning masks work on *compressed survivor indices* (one
  ``flatnonzero`` after the cheap parent test, then per-pivot column
  narrowing) instead of full-width boolean writes, so each gather only
  touches rows the previous filters kept.
- Distance kernels evaluate in cache-sized blocks; each row's
  ``subtract``/``einsum``/``sqrt`` reduction is independent, so chunking
  cannot change a bit.
- The candidate cuts pick between a per-group selection and one stable
  ``lexsort`` + rank threshold over the whole pooled batch from the
  shape of the pool.

Conventions:

- ``radius`` is one scalar per call: a traversal probes every query of
  its block at the same radius.
- Candidate cuts are canonical by ``(distance, id)`` — the same tie
  order as the exact brute-force oracle.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

#: Bytes per gathered block in the chunked distance kernels: a block is
#: ``max(64, _BLOCK_BYTES // row_bytes)`` rows, so (rows × d) stays in
#: cache whatever d is.  ``verify_distances`` alone, ms, median of 15 on
#: the 2-core bench host ("rows" = the 65 536-row block this replaced):
#:
#:   data, query rows / candidates    rows  64 kB  128 kB  256 kB  512 kB  1 MB
#:   100k×128,  1 /   9.7k            5.53   2.78    2.37    2.17    2.53  3.37
#:    25k×96,  32 /  78k             53.7   18.2    16.4    14.5    17.7  23.2
#:   100k×32,  32 / 310k             44.7   36.5    31.2    30.7    40.1  47.2
#:    60k×64,   1 /   6k              1.24   0.98    0.87    0.78    0.86  1.13
_BLOCK_BYTES = 1 << 18


def _block_rows(row_bytes: int) -> int:
    return max(64, _BLOCK_BYTES // max(1, row_bytes))


def filter_slack(dim: int) -> float:
    """Relative slack u of every Eq. 5 filter over *dim*-dimensional
    distances: a test ``|a − b| ≤ r`` passes at ``|a − b| ≤ r + u·(a + b +
    r)``, and the one-sided forms alike.  a and b are separately rounded
    distances — each within relative ``(dim + 5)·eps/2`` of its value —
    so without it two copies of one point can fail a test at r = 0.  The
    slack only admits more rows to the exact distance test, which still
    decides alone.  docs/kernels.md, "The filters' slack".
    """
    return (dim + 5) * np.finfo(np.float64).eps


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
    """Eq. 5 leaf-member filters: parent-distance test, then ring tests.

    One row per live (query, leaf-member) pair; returns the keep mask.
    The parent-distance filter (``|d(q, par) − o.PD| ≤ r``) runs first —
    two scalar gathers — so the ring gathers only touch its survivors;
    the ring filter (``∀i |d(q, p_i) − d(o, p_i)| ≤ r``) narrows the
    survivor set one pivot at a time.  Each test carries the
    :func:`filter_slack` of *dim*.

    No product path calls it: the PM-tree scores its reached leaves in one
    dense pass, and per-member counts come from the pointer-tree oracle.
    It stays in :data:`~repro.kernels.KERNEL_NAMES` because the frozen
    end-to-end benchmark reports a call count for every name on its own
    list, pinned to that tuple by its tests (docs/kernels.md).
    """
    u = filter_slack(dim)
    if use_parent_filter and rep_pd is not None:
        # NaN parent distances (root leaves) compare False; re-admit them
        # explicitly instead of sub-indexing by the known mask.
        pd = leaf_pd[member]
        inside = np.abs(pd - rep_pd) <= radius + u * (pd + rep_pd + radius)
        sub = np.flatnonzero(inside | np.isnan(rep_pd))
    else:
        sub = np.arange(member.size, dtype=np.int64)
    if query_rings is not None:
        for pivot in range(len(ring_cols)):
            if sub.size == 0:
                break
            ring = ring_cols[pivot][member[sub]]
            rq = query_rings[rep_q[sub], pivot]
            ring_ok = np.abs(ring - rq) <= radius + u * (ring + rq + radius)
            sub = sub[ring_ok]
    keep = np.zeros(member.size, dtype=bool)
    keep[sub] = True
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
    interval tests (only on its survivors, one pivot column at a time),
    over one row per (query, routing-entry) pair, each with the
    :func:`filter_slack` of *dim*.

    Survivors still owe a centre-distance computation and the sphere
    test, which the caller performs (it charges ``dist_comps``).
    """
    u = filter_slack(dim)
    if use_parent_filter and rep_pd is not None:
        pd = entry_pd[eidx]
        reach = radius + entry_radius[eidx]
        inside = np.abs(pd - rep_pd) <= reach + u * (pd + rep_pd + reach)
        sub = np.flatnonzero(inside | np.isnan(rep_pd))
    else:
        sub = np.arange(eidx.size, dtype=np.int64)
    if query_rings is not None:
        num_pivots = query_rings.shape[1]
        for pivot in range(num_pivots):
            if sub.size == 0:
                break
            sub_e = eidx[sub]
            rq = query_rings[rep_q[sub], pivot]
            lo, hi = hr_min[sub_e, pivot], hr_max[sub_e, pivot]
            ring_ok = (lo <= rq + radius + u * (lo + rq + radius)) & (
                hi >= rq - radius - u * (hi + rq + radius)
            )
            sub = sub[ring_ok]
    keep = np.zeros(eidx.size, dtype=bool)
    keep[sub] = True
    return keep


def pair_distances(rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
    """Euclidean distance per (point-row, query-row) pair, chunked.

    *rows* is consumed (clobbered in place) — callers pass a fresh gather.
    """
    total = rows.shape[0]
    step = _block_rows(rows.shape[1] * rows.itemsize)
    out = np.empty(total, dtype=rows.dtype)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        block = rows[lo:hi]
        np.subtract(block, query_rows[lo:hi], out=block)
        out[lo:hi] = np.sqrt(np.einsum("ij,ij->i", block, block))
    return out


def verify_distances(
    data: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    rep_q: np.ndarray,
) -> np.ndarray:
    """Gathered candidate verification: ``‖data[ids[i]] − queries[rep_q[i]]‖``.

    Chunked gather + in-place subtract.  The row-wise reduction matches
    :func:`repro.datasets.distance.point_to_points_distances` bit for bit,
    so batched verification equals a per-query loop.
    """
    total = ids.shape[0]
    out = np.empty(total, dtype=np.result_type(data, queries))
    step = _block_rows(data.shape[1] * out.itemsize)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        rows = data[ids[lo:hi]]
        np.subtract(rows, queries[rep_q[lo:hi]], out=rows)
        out[lo:hi] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return out


#: Safety factor on the norm-expansion error bound (``expansion_tol``).
_BAND_SLACK = 4.0


def expansion_tol(dim: int, scale, dtype=np.float64):
    """Bound on ``|e − D²|`` for a norm-expansion estimate e of a squared
    distance in *dim* dimensions, scored in *dtype*, and the exact
    (float64) kernel's distance D.

    *scale* is ``max‖x‖² + ‖q‖²`` (plus the squared threshold the estimate
    is compared against, whose rounding the bound must also cover).  In
    float64, first order: ``‖x‖²``, ``‖q‖²`` and ``x·q`` are dim-term sums
    and three more roundings combine them, so ``|e − d²| ≤ (dim + 3)·eps·
    (‖x‖² + ‖q‖²)``; the exact kernel's ``fl(√(Σ fl(x−q)²))`` is within
    relative ``(dim + 5)·eps/2`` of d, and ``d² ≤ 2(‖x‖² + ‖q‖²)``.  Four
    times ``(dim + 3)·eps·scale`` covers both.  A float32 score of float64
    inputs adds the two conversions' roundings: ``(dim + 5)·eps/2`` at
    float32's eps in all, still inside the same form.  docs/kernels.md,
    "The band contract".
    """
    return _BAND_SLACK * (dim + 3) * np.finfo(dtype).eps * scale


def sq_distance_estimates(
    data: np.ndarray,
    sqnorm: np.ndarray,
    ids: np.ndarray,
    query: np.ndarray,
    q_sqnorm: float,
) -> np.ndarray:
    """``‖data[ids[i]] − query‖²`` by the norm expansion
    ``sqnorm[ids] − 2·data[ids]·query + ‖query‖²``, within
    :func:`expansion_tol` of the exact kernel's squared distance.

    A gather + GEMV per cache-sized block of rows: no subtraction is
    written back and no query row is repeated.  The GEMV's reduction
    order may depend on a row's place in its block, so the estimate is
    pinned by its error bound, not by its bits — it only ever decides
    which rows the exact kernel must see.
    """
    out = np.empty(ids.size, dtype=np.float64)
    step = _block_rows(data.shape[1] * data.itemsize)
    for lo in range(0, ids.size, step):
        hi = min(lo + step, ids.size)
        np.matmul(data[ids[lo:hi]], query, out=out[lo:hi])
    out *= -2.0
    out += sqnorm[ids]
    out += q_sqnorm
    return out


def limit_band(keys: np.ndarray, tol: float, limit: int):
    """The band of a cut to the *limit* smallest by exact distance, for a
    pool known only by keys within *tol* of each exact squared distance.

    Returns ``(lo, hi)``.  With K the limit-th smallest key (one
    selection), a key below ``lo = K − 2·tol`` is certainly kept
    (everything better than it keys below K too, and fewer than *limit*
    do) and a key above ``hi = K + 2·tol`` certainly cut (*limit* rows
    are closer); the band ``[lo, hi]``, K's own row included, only exact
    distances can order.  A *limit* of 0 keeps nothing (``-inf``); a
    pool within its limit keeps everything (``inf``).
    """
    if limit <= 0:
        return -np.inf, -np.inf
    if limit >= keys.size:
        return np.inf, np.inf
    kth = float(np.partition(keys, limit - 1)[limit - 1])
    return kth - 2.0 * tol, kth + 2.0 * tol


def _rank_in_group(counts: np.ndarray, total: int) -> np.ndarray:
    """0-based rank of each sorted position within its query group."""
    starts = np.concatenate([[0], np.cumsum(counts[:-1])]).astype(np.int64)
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


#: Group count above which one lexsort rank cut over the whole pool beats
#: per-group selection: the per-group path costs one Python iteration per
#: group, the lexsort path one 3-key sort of the whole pool.
_LEXSORT_MIN_GROUPS = 1024


def closest_mask(dists: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k entries smallest by ``(distance, id)``.

    Selection (argpartition) plus an id-ordered resolution of the ties at
    the k-th distance — the same canonical boundary cut as the exact
    brute-force oracle, without sorting the whole slice.
    """
    mask = np.zeros(dists.size, dtype=bool)
    if k <= 0:
        return mask
    if k >= dists.size:
        mask[:] = True
        return mask
    kth = float(np.max(dists[np.argpartition(dists, k - 1)[:k]]))
    below = dists < kth
    mask[below] = True
    missing = k - int(below.sum())
    if missing > 0:
        tied = np.flatnonzero(dists == kth)
        mask[tied[np.argsort(ids[tied], kind="stable")[:missing]]] = True
    return mask


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

    Few capped groups (the flat-traversal regime: tens of queries with
    large pools) take an O(pool) per-group boundary cut — argpartition,
    no full sort.  Many tiny groups (high-Q serving batches) amortize one
    stable ``(q, distance, id)`` lexsort and a rank-below-limit threshold
    instead of paying Python dispatch per group.
    """
    capped = np.flatnonzero(counts > limits)
    if capped.size == 0:
        return None
    if capped.size < _LEXSORT_MIN_GROUPS:
        keep = np.ones(q.size, dtype=bool)
        for query in capped:
            lo, hi = int(lims[query]), int(lims[query + 1])
            keep[lo:hi] = closest_mask(dists[lo:hi], ids[lo:hi], int(limits[query]))
        return keep
    order = np.lexsort((ids, dists, q))
    rank = _rank_in_group(counts, q.size)
    allowed = np.where(counts > limits, limits, counts)
    sel = rank < np.repeat(allowed, counts)
    keep = np.zeros(q.size, dtype=bool)
    keep[order[sel]] = True
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

    Many tiny groups (high-Q batches with a handful of candidates each)
    amortize one global stable ``(q, distance, id)`` lexsort + rank
    threshold; otherwise a per-group sort is cheaper than a 3-key sort
    of the whole pool.
    """
    counts = np.bincount(q, minlength=num_queries)
    taken = np.minimum(counts, k)
    lims = np.concatenate([[0], np.cumsum(taken)]).astype(np.int64)
    if num_queries >= _LEXSORT_MIN_GROUPS and q.size <= 8 * num_queries:
        order = np.lexsort((ids, dists, q))
        rank = _rank_in_group(counts, q.size)
        take = order[rank < np.repeat(taken, counts)]
        return lims, ids[take], dists[take]
    lims_in = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    out_ids = np.empty(int(lims[-1]), dtype=ids.dtype)
    out_dists = np.empty(int(lims[-1]), dtype=dists.dtype)
    for query in np.flatnonzero(counts):
        lo, hi = int(lims_in[query]), int(lims_in[query + 1])
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

    Each chunk is a ``np.take`` gather on the raveled index into a
    C-contiguous ``(rows, m, s)`` tensor, contracted by
    ``einsum("nms,ms->nm")``.  einsum's reduction order follows memory
    layout, so pinning the layout is what pins the bits; identical
    operands contract row by row, so chunking cannot change a bit, and
    keeping the gathered tensor cache-sized roughly halves the cost of
    the big-n projection versus one monolithic gather.

    No product path calls it: PM-LSH hashes with the dense Gaussian
    projection only (docs/kernels.md, "One hash family").  It stays in
    :data:`~repro.kernels.KERNEL_NAMES` because the frozen end-to-end
    benchmark reports a call count for every name on its own list,
    pinned to that tuple by its tests.
    """
    points = np.atleast_2d(points)
    n = points.shape[0]
    m, s = sample_idx.shape
    flat_idx = sample_idx.ravel()
    rows = _block_rows(m * s * points.itemsize)
    out = np.empty((n, m), dtype=np.result_type(points, weights))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        gathered = np.take(points[lo:hi], flat_idx, axis=1).reshape(hi - lo, m, s)
        out[lo:hi] = np.einsum("nms,ms->nm", gathered, weights)
    return out
