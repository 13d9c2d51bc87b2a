"""Distance utilities: pairwise kernels, the distance distribution F(x)
(Eq. 4) and per-dimension marginals G_i(x) (Eq. 8) used by the §4.2 cost
models and by PM-LSH's radius selection (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.fast import expansion_tol, group_topk, verify_distances
from repro.utils.rng import RandomState, as_generator

#: Chunk size (rows) for blocked brute-force distance computation; keeps the
#: temporary (chunk × n) matrix small enough to stay cache- and RAM-friendly.
_CHUNK_ROWS = 256


def point_to_points_distances(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from one query row to every row of *points*."""
    query = np.asarray(query, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError(f"query must be 1-D, got shape {query.shape}")
    if points.ndim != 2 or points.shape[1] != query.shape[0]:
        raise ValueError(
            f"points must be 2-D with dimension {query.shape[0]}, got shape {points.shape}"
        )
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Dense Euclidean distance *estimates* between rows of *a* and *b*.

    Uses the ‖a‖² + ‖b‖² − 2a·b expansion in float64, clamped at zero before
    the square root to absorb rounding noise.  The expansion carries no
    error bound relative to the distances (it loses every digit far from
    the origin), so its callers only rank or summarise — pivot selection,
    the LID / RC statistics.  Exact answers come from differences
    (:func:`point_to_points_distances`, :func:`chunked_knn`).
    """
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    sq = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def pairwise_distances_rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix via explicit difference tensors.

    Slower than the GEMM expansion in :func:`pairwise_distances` for large
    inputs, but **bitwise reproducible across row subsets**: every (i, j)
    entry is reduced from ``a[i] - b[j]`` alone, so distances computed
    against any subset of *b*'s rows equal the full-matrix floats exactly.
    The exact range / closest-pair reference paths use this so sharded
    (per-subset) answers match the single-index answers byte for byte.
    Callers must block: the temporary holds ``len(a) × len(b) × d`` floats.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def chunked_knn(
    queries: np.ndarray, points: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbours for each query row, by blocked brute force.

    Returns ``(ids, distances)`` with shapes ``(q, k)``, each row sorted by
    ``(distance, id)`` — the canonical tie order of every index.  This is
    the ground-truth oracle of the evaluation harness and the ``exact``
    backend, so its answers equal a difference-based brute force
    (``‖p − q‖`` per row, as :func:`point_to_points_distances`) byte for
    byte at any offset from the origin.

    It follows the band contract (docs/kernels.md): a GEMM scores each
    block as ``‖p‖² − 2·q·p``, an estimate of ``d² − ‖q‖²`` within
    :func:`~repro.kernels.fast.expansion_tol`; every point scoring within
    2·tol of a row's k-th score, or below it, gets its distance from
    differences; the canonical ``(distance, id)`` cut runs on those.  Near
    the origin that is about k rows per query; far from it the band
    widens (slower, never different).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    sq_points = np.einsum("ij,ij->i", points, points)
    max_sq = float(sq_points.max())
    all_ids = np.empty((queries.shape[0], k), dtype=np.int64)
    all_dists = np.empty((queries.shape[0], k), dtype=np.float64)
    for start in range(0, queries.shape[0], _CHUNK_ROWS):
        block = queries[start : start + _CHUNK_ROWS]
        scores = block @ points.T
        scores *= -2.0
        scores += sq_points
        tol = expansion_tol(points.shape[1], max_sq + np.einsum("ij,ij->i", block, block))
        kth = np.partition(scores, k - 1, axis=1)[:, k - 1]
        rows, ids = np.nonzero(scores <= (kth + 2.0 * tol)[:, None])
        dists = verify_distances(points, ids, block, rows)
        _, block_ids, block_d = group_topk(rows, ids, dists, block.shape[0], k)
        all_ids[start : start + block.shape[0]] = block_ids.reshape(-1, k)
        all_dists[start : start + block.shape[0]] = block_d.reshape(-1, k)
    return all_ids, all_dists


@dataclass(frozen=True)
class DistanceDistribution:
    """Empirical distance distribution F(x) = Pr[‖o_i, o_j‖ ≤ x] (Eq. 4).

    Backed by a sorted sample of pairwise distances; ``cdf`` and ``quantile``
    are step-function evaluations on that sample.
    """

    samples: np.ndarray  # sorted, 1-D

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if np.any(np.diff(samples) < 0):
            samples = np.sort(samples)
        object.__setattr__(self, "samples", samples)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """F(x): fraction of sampled pairwise distances ≤ x."""
        result = np.searchsorted(self.samples, np.asarray(x, dtype=np.float64), side="right")
        result = result / self.samples.size
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(result)
        return result

    def quantile(self, p: float) -> float:
        """Smallest x with F(x) ≥ p; the inverse used to pick r_min (§4.5)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if p == 0.0:
            return float(self.samples[0])
        index = int(np.ceil(p * self.samples.size)) - 1
        return float(self.samples[index])

    @property
    def max_distance(self) -> float:
        return float(self.samples[-1])

    @property
    def mean_distance(self) -> float:
        return float(self.samples.mean())


#: Pairs gathered per step of :func:`sample_distance_distribution`.
_PAIR_BLOCK = 4096


def sample_distance_distribution(
    points: np.ndarray,
    num_pairs: int = 100_000,
    seed: RandomState = None,
) -> DistanceDistribution:
    """Estimate F(x) by sampling random point pairs (with replacement)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two points to sample pair distances")
    rng = as_generator(seed)
    left = rng.integers(0, n, size=num_pairs)
    right = rng.integers(0, n, size=num_pairs)
    # Re-draw the (rare) self pairs so zero distances don't distort the tail.
    collisions = left == right
    while np.any(collisions):
        right[collisions] = rng.integers(0, n, size=int(collisions.sum()))
        collisions = left == right
    # Blocked over the pair list: the whole (num_pairs, d) gather and its
    # two temporaries were fit()'s RSS high-water mark; the reduction is
    # row-wise, so the blocks change no bit.
    distances = np.empty(num_pairs, dtype=np.float64)
    for lo in range(0, num_pairs, _PAIR_BLOCK):
        hi = lo + _PAIR_BLOCK
        diff = points[left[lo:hi]] - points[right[lo:hi]]
        distances[lo:hi] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return DistanceDistribution(np.sort(distances))


@dataclass(frozen=True)
class MarginalDistribution:
    """Per-dimension marginal G_i(x) = Pr[X_i ≤ x] (Eq. 8), one ECDF per axis.

    Used by the R-tree cost model to score how likely a node's MBR extent on
    each axis is to intersect a (cube-substituted) query ball.
    """

    sorted_columns: np.ndarray  # (n, dims), each column sorted ascending

    def __post_init__(self) -> None:
        cols = np.asarray(self.sorted_columns, dtype=np.float64)
        if cols.ndim != 2 or cols.size == 0:
            raise ValueError("sorted_columns must be a non-empty 2-D array")
        object.__setattr__(self, "sorted_columns", cols)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "MarginalDistribution":
        points = np.asarray(points, dtype=np.float64)
        return cls(np.sort(points, axis=0))

    @property
    def dims(self) -> int:
        return self.sorted_columns.shape[1]

    def cdf(self, dim: int, x: float) -> float:
        """G_dim(x): fraction of points whose coordinate on *dim* is ≤ x."""
        column = self.sorted_columns[:, dim]
        return float(np.searchsorted(column, x, side="right") / column.size)

    def interval_mass(self, dim: int, lo: float, hi: float) -> float:
        """G_dim(hi) − G_dim(lo): probability mass of [lo, hi] on one axis."""
        if hi < lo:
            return 0.0
        return self.cdf(dim, hi) - self.cdf(dim, lo)
