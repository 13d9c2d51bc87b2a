"""p-stable locality-sensitive hashing in Euclidean space.

Two flavours, matching §2.2 and §3.2 of the paper:

* :class:`GaussianProjection` — the *unbucketed* family ``h*(o) = a·o``
  (Eq. 3) with ``a ~ N(0, I)``.  PM-LSH, R-LSH, SRS and QALSH work
  directly on these real-valued projections; stacking m of them maps the
  dataset into the m-dimensional projected space.
* :class:`LSHFunction` — the classic bucketed form
  ``h(o) = ⌊(a·o + b)/w⌋`` (Eq. 1) used by E2LSH and Multi-Probe, with
  ``b ~ U[0, w)``.

:func:`collision_probability` evaluates Eq. 2 — the probability that two
points at distance τ share a bucket of width w — in closed form.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.utils.rng import RandomState, as_generator


class GaussianProjection:
    """A bank of ``m`` 2-stable projections ``h*_i(o) = a_i · o``.

    The 2-stability property (§3.2) makes the per-axis hash difference of
    two points at distance r distributed as ``N(0, r²)``, hence
    ``‖o'_1 − o'_2‖² / r² ~ χ²(m)`` (Lemma 1) — the relationship all of
    PM-LSH's estimation theory rests on.
    """

    def __init__(self, dim: int, m: int, seed: RandomState = None) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        rng = as_generator(seed)
        self.dim = dim
        self.m = m
        # (m, dim): row i is the direction vector a_i.
        self.directions = rng.normal(0.0, 1.0, size=(m, dim))

    @classmethod
    def from_directions(cls, directions: np.ndarray) -> "GaussianProjection":
        """Rebuild a projection bank from stored direction vectors (used
        when restoring a persisted index)."""
        directions = np.asarray(directions, dtype=np.float64)
        if directions.ndim != 2 or directions.size == 0:
            raise ValueError(f"directions must be a non-empty 2-D array, got {directions.shape}")
        bank = cls.__new__(cls)
        bank.m, bank.dim = directions.shape
        bank.directions = directions.copy()
        return bank

    def project(self, points: np.ndarray) -> np.ndarray:
        """Map ``(n, dim)`` points (or one ``(dim,)`` point) into R^m."""
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {points.shape[1]}, expected {self.dim}"
            )
        projected = points @ self.directions.T
        return projected[0] if single else projected

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.project(points)


class LSHFunction:
    """A bank of ``m`` bucketed hash functions ``h_i(o) = ⌊(a_i·o + b_i)/w⌋``.

    ``bucketize`` floors shifted projections into integer bucket ids; E2LSH
    concatenates all m ids into one compound key, Multi-Probe perturbs the
    per-axis ids.  ``residuals`` exposes the within-bucket offsets that
    Multi-Probe's query-directed probing scores (distance of the query to
    each bucket boundary).
    """

    def __init__(self, dim: int, m: int, w: float = 4.0, seed: RandomState = None) -> None:
        if w <= 0:
            raise ValueError(f"bucket width w must be positive, got {w}")
        rng = as_generator(seed)
        self.projection = GaussianProjection(dim, m, seed=rng)
        self.dim = dim
        self.m = m
        self.w = float(w)
        self.offsets = rng.uniform(0.0, w, size=m)

    def raw(self, points: np.ndarray) -> np.ndarray:
        """Shifted projections ``a_i·o + b_i`` (before flooring)."""
        return self.projection.project(points) + self.offsets

    def bucketize(self, points: np.ndarray) -> np.ndarray:
        """Integer bucket ids, shape ``(n, m)`` (or ``(m,)`` for one point)."""
        return np.floor(self.raw(points) / self.w).astype(np.int64)

    def residuals(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis distances of *point* to its bucket's two boundaries.

        Returns ``(to_lower, to_upper)`` with ``to_lower + to_upper == w``;
        these are the x_i(−1) / x_i(+1) quantities in Multi-Probe's
        perturbation scoring.
        """
        raw = self.raw(point)
        to_lower = raw - np.floor(raw / self.w) * self.w
        return to_lower, self.w - to_lower

    def compound_key(self, point: np.ndarray) -> tuple:
        """The concatenated bucket id G(o) used as an E2LSH table key."""
        return tuple(int(b) for b in np.atleast_1d(self.bucketize(point)))


def collision_probability(tau: float, w: float) -> float:
    """Eq. 2 in closed form: Pr[h(o1) = h(o2)] for ‖o1,o2‖ = τ, width w.

    Derived from the standard-normal pdf φ and cdf Φ with t = w/τ:

        p(τ) = 2Φ(t) − 1 − (2/(√(2π)·t)) · (1 − e^{−t²/2})

    As τ → 0 the probability tends to 1; as τ → ∞ it tends to 0.
    """
    if w <= 0:
        raise ValueError(f"bucket width w must be positive, got {w}")
    if tau < 0:
        raise ValueError(f"distance tau must be non-negative, got {tau}")
    if tau == 0.0:
        return 1.0
    t = w / tau
    term_cdf = 2.0 * stats.norm.cdf(t) - 1.0
    term_pdf = 2.0 / (np.sqrt(2.0 * np.pi) * t) * (1.0 - np.exp(-0.5 * t * t))
    return float(term_cdf - term_pdf)


def sensitivity(r: float, c: float, w: float) -> tuple[float, float]:
    """The (p1, p2) pair making Eq. 1's family (r, cr, p1, p2)-sensitive."""
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must exceed 1, got {c}")
    return collision_probability(r, w), collision_probability(c * r, w)
