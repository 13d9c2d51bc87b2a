"""Tests for the evaluation harness and ground-truth caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactKNN
from repro.baselines.lscan import LinearScan
from repro.evaluation.ground_truth import GroundTruth, compute_ground_truth
from repro.evaluation.harness import evaluate_index, run_query_set
from repro.evaluation.tables import format_series, format_table


class TestGroundTruth:
    def test_shapes_and_slicing(self, small_clustered):
        queries = small_clustered[:5] + 0.01
        gt = compute_ground_truth(small_clustered, queries, k_max=20)
        assert gt.num_queries == 5
        assert gt.k_max == 20
        ids, dists = gt.for_query(2, k=7)
        assert ids.shape == (7,)
        assert np.all(np.diff(dists) >= -1e-12)

    def test_k_out_of_range(self, small_clustered):
        gt = compute_ground_truth(small_clustered, small_clustered[:2], k_max=5)
        with pytest.raises(ValueError):
            gt.for_query(0, k=6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth(ids=np.zeros((2, 3)), distances=np.zeros((2, 4)))


class TestRunQuerySet:
    def test_exact_scores_perfectly(self, small_clustered):
        queries = small_clustered[:6] + 0.01
        gt = compute_ground_truth(small_clustered, queries, k_max=10)
        index = ExactKNN().fit(small_clustered)
        result = run_query_set(index, queries, k=10, ground_truth=gt)
        assert result.recall == pytest.approx(1.0)
        assert result.overall_ratio == pytest.approx(1.0)
        assert result.query_time_ms > 0.0
        assert result.per_query_time_ms.shape == (6,)

    def test_lscan_scores_below_exact(self, small_clustered):
        queries = small_clustered[:10] + 0.01
        gt = compute_ground_truth(small_clustered, queries, k_max=10)
        index = LinearScan(portion=0.5, seed=0).fit(small_clustered)
        result = run_query_set(index, queries, k=10, ground_truth=gt)
        assert result.recall < 1.0
        assert result.overall_ratio >= 1.0
        assert result.extra["mean_candidates"] > 0

    def test_unbuilt_index_rejected(self, small_clustered):
        queries = small_clustered[:2]
        gt = compute_ground_truth(small_clustered, queries, k_max=5)
        with pytest.raises(RuntimeError):
            run_query_set(LinearScan(), queries, 5, gt)

    def test_query_count_mismatch(self, small_clustered):
        gt = compute_ground_truth(small_clustered, small_clustered[:3], k_max=5)
        with pytest.raises(ValueError):
            run_query_set(
                ExactKNN().fit(small_clustered), small_clustered[:2], 5, gt
            )

    def test_k_exceeds_ground_truth(self, small_clustered):
        queries = small_clustered[:2]
        gt = compute_ground_truth(small_clustered, queries, k_max=5)
        with pytest.raises(ValueError):
            run_query_set(ExactKNN().fit(small_clustered), queries, 6, gt)

    def test_evaluate_index_computes_ground_truth(self, small_clustered):
        queries = small_clustered[:3] + 0.01
        index = ExactKNN().fit(small_clustered)
        result = evaluate_index(index, small_clustered, queries, k=5, dataset_name="X")
        assert result.dataset == "X"
        assert result.recall == pytest.approx(1.0)


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(
            "Demo", ["name", "value"], [["a", 1.5], ["bb", 22222.0]], note="n"
        )
        assert "== Demo ==" in text
        assert "22,222" in text
        assert text.endswith("n\n")

    def test_format_series_validates_lengths(self):
        with pytest.raises(ValueError):
            format_series("S", "x", [1, 2], {"y": [1.0]})

    def test_format_series_layout(self):
        text = format_series("S", "k", [1, 10], {"time": [0.5, 0.7], "recall": [1.0, 0.9]})
        lines = text.strip().splitlines()
        assert lines[1].split()[0] == "k"
        assert len(lines) == 5  # banner, header, rule, 2 rows

    def test_nan_cell(self):
        text = format_table("T", ["v"], [[float("nan")]])
        assert "nan" in text


class TestRangeHarness:
    RADIUS = 5.0

    def test_exact_scores_perfectly(self, small_clustered):
        from repro.evaluation.ground_truth import compute_range_ground_truth
        from repro.evaluation.harness import run_range_query_set

        queries = small_clustered[:6] + 0.01
        truth = compute_range_ground_truth(small_clustered, queries, self.RADIUS)
        index = ExactKNN().fit(small_clustered)
        result = run_range_query_set(index, queries, self.RADIUS, truth)
        assert result.recall == pytest.approx(1.0)
        assert result.precision == pytest.approx(1.0)
        assert result.mean_returned == pytest.approx(float(truth.counts.mean()))
        assert result.query_time_ms > 0.0

    def test_pmlsh_holds_range_contract(self, small_clustered):
        from repro.core.params import PMLSHParams
        from repro.core.pmlsh import PMLSH
        from repro.evaluation.ground_truth import compute_range_ground_truth
        from repro.evaluation.harness import run_range_query_set

        queries = small_clustered[:10] + 0.01
        truth = compute_range_ground_truth(small_clustered, queries, self.RADIUS)
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=1).fit(
            small_clustered
        )
        result = run_range_query_set(index, queries, self.RADIUS, truth)
        assert result.recall >= 0.9
        assert result.extra["mean_candidates"] < small_clustered.shape[0]

    def test_query_count_mismatch(self, small_clustered):
        from repro.evaluation.ground_truth import compute_range_ground_truth
        from repro.evaluation.harness import run_range_query_set

        truth = compute_range_ground_truth(
            small_clustered, small_clustered[:3], self.RADIUS
        )
        with pytest.raises(ValueError):
            run_range_query_set(
                ExactKNN().fit(small_clustered),
                small_clustered[:2],
                self.RADIUS,
                truth,
            )

    def test_unbuilt_index_rejected(self, small_clustered):
        from repro.evaluation.ground_truth import compute_range_ground_truth
        from repro.evaluation.harness import run_range_query_set

        truth = compute_range_ground_truth(
            small_clustered, small_clustered[:2], self.RADIUS
        )
        with pytest.raises(RuntimeError):
            run_range_query_set(LinearScan(), small_clustered[:2], self.RADIUS, truth)

