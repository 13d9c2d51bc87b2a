"""Tests for MBR geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.rtree.geometry import MBR


class TestConstruction:
    def test_from_points(self):
        points = np.array([[0.0, 5.0], [2.0, 1.0], [1.0, 3.0]])
        rect = MBR.from_points(points)
        np.testing.assert_array_equal(rect.lo, [0.0, 1.0])
        np.testing.assert_array_equal(rect.hi, [2.0, 5.0])
        assert all(rect.contains_point(point) for point in points)
        assert not rect.contains_point(np.array([3.0, 3.0]))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            MBR(np.array([1.0]), np.array([0.0]))

    def test_union(self):
        a = MBR(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = MBR(np.array([2.0, -1.0]), np.array([3.0, 0.5]))
        union = MBR.union_of([a, b])
        np.testing.assert_array_equal(union.lo, [0.0, -1.0])
        np.testing.assert_array_equal(union.hi, [3.0, 1.0])

    def test_union_empty_rejected(self):
        with pytest.raises(ValueError):
            MBR.union_of([])


class TestMeasures:
    def test_margin(self):
        rect = MBR(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
        assert rect.margin() == 5.0

    def test_center(self):
        rect = MBR(np.array([0.0, 2.0]), np.array([4.0, 4.0]))
        np.testing.assert_array_equal(rect.center(), [2.0, 3.0])


class TestBallGeometry:
    def test_min_distance_inside_is_zero(self):
        rect = MBR(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        assert rect.min_distance(np.array([1.0, 1.0])) == 0.0

    def test_min_distance_outside(self):
        rect = MBR(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert rect.min_distance(np.array([4.0, 5.0])) == pytest.approx(5.0)

    def test_max_distance(self):
        rect = MBR(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert rect.max_distance(np.array([0.0, 0.0])) == pytest.approx(np.sqrt(2.0))

    def test_intersects_ball(self):
        rect = MBR(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert rect.intersects_ball(np.array([2.0, 0.5]), 1.0)
        assert not rect.intersects_ball(np.array([3.0, 0.5]), 1.0)

    def test_intersects(self):
        a = MBR(np.array([0.0]), np.array([2.0]))
        b = MBR(np.array([1.0]), np.array([3.0]))
        c = MBR(np.array([2.5]), np.array([4.0]))
        assert a.intersects(b)
        assert not a.intersects(c)

    @given(
        arrays(np.float64, 4, elements=st.floats(-50, 50)),
        arrays(np.float64, 8, elements=st.floats(-50, 50)),
    )
    @settings(max_examples=50)
    def test_min_max_bound_actual_distances(self, query, corners):
        """MINDIST <= distance to any contained point <= MAXDIST."""
        points = corners.reshape(2, 4)
        rect = MBR.from_points(points)
        inner = points.mean(axis=0)
        dist = float(np.linalg.norm(inner - query))
        assert rect.min_distance(query) <= dist + 1e-9
        assert rect.max_distance(query) >= dist - 1e-9
