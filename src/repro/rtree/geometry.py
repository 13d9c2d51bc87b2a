"""Minimum bounding rectangles and ball/rectangle geometry in R^m."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MBR:
    """An axis-aligned minimum bounding rectangle ``[lo, hi]`` in R^m."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.float64).copy()
        self.hi = np.asarray(self.hi, dtype=np.float64).copy()
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError(f"lo/hi must be matching 1-D arrays, got {self.lo.shape} / {self.hi.shape}")
        if np.any(self.lo > self.hi):
            raise ValueError("lo must be <= hi on every axis")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: np.ndarray) -> "MBR":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got shape {points.shape}")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def union_of(cls, rects: list["MBR"]) -> "MBR":
        if not rects:
            raise ValueError("cannot take the union of zero rectangles")
        lo = np.minimum.reduce([r.lo for r in rects])
        hi = np.maximum.reduce([r.hi for r in rects])
        return cls(lo, hi)

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------

    @property
    def dims(self) -> int:
        return self.lo.shape[0]

    def extents(self) -> np.ndarray:
        return self.hi - self.lo

    def margin(self) -> float:
        """Sum of edge lengths (the R*-tree 'margin' measure)."""
        return float(self.extents().sum())

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) * 0.5

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def contains_point(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(point >= self.lo) and np.all(point <= self.hi))

    def intersects(self, other: "MBR") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    # ------------------------------------------------------------------
    # ball geometry
    # ------------------------------------------------------------------

    def min_distance(self, point: np.ndarray) -> float:
        """Euclidean distance from *point* to the nearest face (0 inside).

        This is MINDIST, the lower bound that drives both ball-range pruning
        and the best-first incremental NN traversal.
        """
        point = np.asarray(point, dtype=np.float64)
        below = np.maximum(self.lo - point, 0.0)
        above = np.maximum(point - self.hi, 0.0)
        gap = np.maximum(below, above)
        return float(np.sqrt(np.dot(gap, gap)))

    def max_distance(self, point: np.ndarray) -> float:
        """Distance from *point* to the farthest corner (MAXDIST)."""
        point = np.asarray(point, dtype=np.float64)
        far = np.maximum(np.abs(point - self.lo), np.abs(point - self.hi))
        return float(np.sqrt(np.dot(far, far)))

    def intersects_ball(self, center: np.ndarray, radius: float) -> bool:
        return self.min_distance(center) <= radius
