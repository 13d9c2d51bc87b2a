"""Tests for overall ratio (Eq. 11) and recall (Eq. 12)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import overall_ratio, recall


class TestOverallRatio:
    def test_perfect_result_is_one(self):
        exact = np.array([1.0, 2.0, 3.0])
        assert overall_ratio(exact, exact) == pytest.approx(1.0)

    def test_rankwise_average(self):
        result = np.array([2.0, 2.0])
        exact = np.array([1.0, 2.0])
        assert overall_ratio(result, exact) == pytest.approx((2.0 + 1.0) / 2)

    def test_missing_ranks_penalised(self):
        result = np.array([2.0])
        exact = np.array([1.0, 1.0, 1.0])
        assert overall_ratio(result, exact, k=3) == pytest.approx(2.0)

    def test_zero_exact_distance_matched(self):
        result = np.array([0.0, 2.0])
        exact = np.array([0.0, 1.0])
        assert overall_ratio(result, exact) == pytest.approx(1.5)

    def test_zero_exact_distance_unmatched_is_inf(self):
        result = np.array([0.5])
        exact = np.array([0.0])
        assert overall_ratio(result, exact) == np.inf

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            overall_ratio(np.array([]), np.array([1.0]))

    def test_insufficient_exact_rejected(self):
        with pytest.raises(ValueError):
            overall_ratio(np.array([1.0]), np.array([1.0]), k=2)

    @given(
        st.lists(st.floats(0.1, 100), min_size=1, max_size=20),
    )
    @settings(max_examples=30)
    def test_at_least_one_for_sorted_superset(self, exact_list):
        """An algorithm returning exactly the exact distances scores 1;
        any worse distances push the ratio above 1."""
        exact = np.sort(np.array(exact_list))
        assert overall_ratio(exact, exact) == pytest.approx(1.0)
        worse = exact * 1.7
        assert overall_ratio(worse, exact) >= 1.0


class TestRecall:
    def test_perfect(self):
        ids = np.array([3, 1, 2])
        assert recall(ids, np.array([1, 2, 3])) == 1.0

    def test_partial(self):
        assert recall(np.array([1, 9]), np.array([1, 2])) == 0.5

    def test_zero(self):
        assert recall(np.array([7, 8]), np.array([1, 2])) == 0.0

    def test_k_truncates_both_sides(self):
        got = np.array([1, 99, 98])
        exact = np.array([1, 2, 3])
        assert recall(got, exact, k=1) == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            recall(np.array([1]), np.array([1]), k=2)

    @given(st.sets(st.integers(0, 1000), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_self_recall_is_one(self, id_set):
        ids = np.array(sorted(id_set))
        assert recall(ids, ids) == 1.0


class TestRangeRecall:
    def test_perfect(self):
        from repro.evaluation.metrics import range_recall

        assert range_recall(np.array([3, 1, 2]), np.array([1, 2, 3])) == 1.0

    def test_partial_and_extras_not_penalised(self):
        from repro.evaluation.metrics import range_recall

        # one of two exact matches found; extra slack points are free
        assert range_recall(np.array([1, 99, 98]), np.array([1, 2])) == 0.5

    def test_empty_exact_ball_scores_one(self):
        from repro.evaluation.metrics import range_recall

        assert range_recall(np.array([5, 6]), np.array([])) == 1.0
        assert range_recall(np.array([]), np.array([])) == 1.0

    def test_empty_result_nonempty_ball(self):
        from repro.evaluation.metrics import range_recall

        assert range_recall(np.array([]), np.array([1])) == 0.0


class TestRangePrecision:
    def test_all_inside(self):
        from repro.evaluation.metrics import range_precision

        assert range_precision(np.array([0.1, 0.5]), r=0.5) == 1.0

    def test_slack_measured(self):
        from repro.evaluation.metrics import range_precision

        assert range_precision(np.array([0.1, 0.9]), r=0.5) == 0.5

    def test_empty_result_is_clean(self):
        from repro.evaluation.metrics import range_precision

        assert range_precision(np.array([]), r=1.0) == 1.0

