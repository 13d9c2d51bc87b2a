"""Tests for the polymorphic query model: specs, run() dispatch, ragged
range results, closest pairs, and per-query runtime knobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ClosestPairResult,
    ExactKNN,
    Knn,
    PMLSH,
    PMLSHParams,
    Range,
    RangeResult,
    create_index,
)
from repro.baselines.base import QueryResult
from repro.queries import as_query_spec, sort_pairs


@pytest.fixture(scope="module")
def pm_index(small_clustered):
    return PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small_clustered)


@pytest.fixture(scope="module")
def exact_index(small_clustered):
    return ExactKNN().fit(small_clustered)


class TestSpecValidation:
    def test_knn_requires_positive_k(self):
        with pytest.raises(ValueError):
            Knn(k=0)

    def test_knn_knob_validation(self):
        with pytest.raises(ValueError):
            Knn(k=3, budget=0)
        with pytest.raises(ValueError):
            Knn(k=3, c=1.0)

    def test_range_requires_positive_radius(self):
        with pytest.raises(ValueError):
            Range(r=0.0)
        with pytest.raises(ValueError):
            Range(r=-2.0)

    def test_range_knob_validation(self):
        with pytest.raises(ValueError):
            Range(r=1.0, c=0.9)
        with pytest.raises(ValueError):
            Range(r=1.0, budget=-1)

    def test_has_overrides(self):
        assert not Knn(k=5).has_overrides
        assert Knn(k=5, budget=10).has_overrides
        assert Knn(k=5, c=2.0).has_overrides
        assert not Range(r=1.0).has_overrides
        assert Range(r=1.0, budget=3).has_overrides

    def test_numeric_knobs_coerced_to_canonical_types(self):
        """Float knobs must be stored coerced, not just validated — a float
        budget used to crash deep inside PM-LSH's buffer allocation."""
        knn = Knn(k=3, budget=50.0, c=2)
        assert isinstance(knn.budget, int) and knn.budget == 50
        assert isinstance(knn.c, float) and knn.c == 2.0
        rng_spec = Range(r=1, budget=7.0, c=2)
        assert isinstance(rng_spec.r, float)
        assert isinstance(rng_spec.budget, int) and rng_spec.budget == 7
        assert isinstance(rng_spec.c, float)

    def test_float_budget_runs_end_to_end(self, pm_index, small_clustered):
        queries = small_clustered[:2] + 0.01
        result = pm_index.run(queries, Knn(k=3, budget=50.0))
        assert result.stats["candidates"] <= 50

    def test_as_query_spec_coerces_int(self):
        spec = as_query_spec(7)
        assert isinstance(spec, Knn) and spec.k == 7
        assert as_query_spec(spec) is spec
        with pytest.raises(TypeError):
            as_query_spec("knn")
        with pytest.raises(TypeError):
            as_query_spec(True)


class TestRunDispatch:
    def test_run_knn_matches_search(self, pm_index, small_clustered):
        queries = small_clustered[:5] + 0.01
        via_run = pm_index.run(queries, Knn(k=6))
        via_search = pm_index.search(queries, 6)
        np.testing.assert_array_equal(via_run.ids, via_search.ids)

    def test_run_int_spec_is_knn(self, exact_index, small_clustered):
        queries = small_clustered[:3] + 0.01
        np.testing.assert_array_equal(
            exact_index.run(queries, 4).ids, exact_index.search(queries, 4).ids
        )

    def test_run_range_matches_range_search(self, exact_index, small_clustered):
        queries = small_clustered[:4] + 0.01
        a = exact_index.run(queries, Range(r=5.0))
        b = exact_index.range_search(queries, 5.0)
        np.testing.assert_array_equal(a.lims, b.lims)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_unknown_spec_rejected(self, exact_index, small_clustered):
        class Weird:
            pass

        with pytest.raises(TypeError):
            exact_index.run(small_clustered[:2], Weird())

    def test_run_requires_fit(self, small_clustered):
        with pytest.raises(RuntimeError):
            PMLSH(seed=0).run(small_clustered[:2], Knn(k=1))


class TestKnnKnobs:
    def test_budget_override_caps_candidates(self, pm_index, small_clustered):
        queries = small_clustered[:6] + 0.01
        default = pm_index.run(queries, Knn(k=5))
        capped = pm_index.run(queries, Knn(k=5, budget=30))
        assert capped.stats["candidates"] <= 30
        assert default.stats["candidates"] > capped.stats["candidates"]
        assert "overrides_ignored" not in capped.stats

    def test_budget_never_below_k(self, pm_index, small_clustered):
        result = pm_index.run(small_clustered[:2] + 0.01, Knn(k=8, budget=1))
        assert result.ids.shape[1] == 8

    def test_c_override_changes_probing(self, pm_index, small_clustered):
        queries = small_clustered[:6] + 0.01
        tight = pm_index.run(queries, Knn(k=5, c=1.2))
        loose = pm_index.run(queries, Knn(k=5, c=3.0))
        # A looser ratio terminates earlier: fewer candidates verified.
        assert loose.stats["candidates"] < tight.stats["candidates"]

    def test_c_override_uses_solved_cache(self, pm_index):
        first = pm_index.solved_for(2.5)
        again = pm_index.solved_for(2.5)
        assert first is again
        assert pm_index.solved_for(None) is pm_index.solved

    def test_overrides_marked_ignored_on_plain_backends(
        self, exact_index, small_clustered
    ):
        queries = small_clustered[:3] + 0.01
        result = exact_index.run(queries, Knn(k=4, budget=10))
        assert result.stats["overrides_ignored"] == 1.0
        plain = exact_index.run(queries, Knn(k=4))
        assert "overrides_ignored" not in plain.stats

    def test_range_overrides_marked_ignored_on_fallback_backends(
        self, exact_index, pm_index, small_clustered
    ):
        queries = small_clustered[:3] + 0.01
        ignored = exact_index.run(queries, Range(r=5.0, budget=10))
        assert ignored.stats["overrides_ignored"] == 1.0
        plain = exact_index.run(queries, Range(r=5.0))
        assert "overrides_ignored" not in plain.stats
        honoured = pm_index.run(queries, Range(r=5.0, budget=10))
        assert "overrides_ignored" not in honoured.stats

    def test_plain_spec_identical_to_overridden_default(
        self, pm_index, small_clustered
    ):
        """Passing the index's own c explicitly must not change answers."""
        queries = small_clustered[:5] + 0.01
        a = pm_index.run(queries, Knn(k=5))
        b = pm_index.run(queries, Knn(k=5, c=pm_index.params.c))
        np.testing.assert_array_equal(a.ids, b.ids)


class TestRangeResultContainer:
    def test_csr_layout(self):
        result = RangeResult(
            lims=np.array([0, 2, 2, 5]),
            ids=np.array([4, 7, 1, 2, 3]),
            distances=np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
        )
        assert result.num_queries == 3
        np.testing.assert_array_equal(result.counts, [2, 0, 3])
        np.testing.assert_array_equal(result[0].ids, [4, 7])
        assert len(result[1]) == 0
        np.testing.assert_array_equal(result[-1].ids, [1, 2, 3])

    def test_invalid_lims_rejected(self):
        with pytest.raises(ValueError):
            RangeResult(
                lims=np.array([1, 2]), ids=np.array([3]), distances=np.array([0.5])
            )
        with pytest.raises(ValueError):
            RangeResult(
                lims=np.array([0, 2]), ids=np.array([3]), distances=np.array([0.5])
            )

    def test_out_of_range_query_index(self):
        result = RangeResult(
            lims=np.array([0, 1]), ids=np.array([0]), distances=np.array([0.0])
        )
        with pytest.raises(IndexError):
            result[1]

    def test_from_queries_round_trip(self):
        parts = [
            QueryResult(ids=np.array([3, 1]), distances=np.array([0.1, 0.9])),
            QueryResult(ids=np.empty(0, dtype=np.int64), distances=np.empty(0)),
        ]
        result = RangeResult.from_queries(parts)
        assert result.num_queries == 2
        np.testing.assert_array_equal(result.lims, [0, 2, 2])
        np.testing.assert_array_equal(result[0].ids, [3, 1])

    def test_iteration(self):
        result = RangeResult(
            lims=np.array([0, 1, 2]),
            ids=np.array([5, 6]),
            distances=np.array([0.5, 0.6]),
        )
        assert [len(one) for one in result] == [1, 1]


class TestClosestPairContainer:
    def test_well_formed(self):
        result = ClosestPairResult(
            pairs=np.array([[0, 3], [1, 2]]), distances=np.array([0.1, 0.2])
        )
        assert len(result) == 2
        assert result[0] == (0, 3, 0.1)
        assert list(result)[1] == (1, 2, 0.2)

    def test_rejects_unordered_pairs(self):
        with pytest.raises(ValueError):
            ClosestPairResult(pairs=np.array([[3, 0]]), distances=np.array([0.1]))
        with pytest.raises(ValueError):
            ClosestPairResult(pairs=np.array([[1, 1]]), distances=np.array([0.1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClosestPairResult(pairs=np.array([[0, 1]]), distances=np.array([0.1, 0.2]))


class TestPairHelpers:
    def test_sort_pairs_orders_by_distance_then_ids(self):
        pairs = np.array([[2, 5], [0, 9], [0, 3], [1, 4]])
        dists = np.array([0.5, 0.2, 0.2, 0.2])
        sorted_pairs, sorted_dists = sort_pairs(pairs, dists)
        np.testing.assert_array_equal(sorted_pairs, [[0, 3], [0, 9], [1, 4], [2, 5]])
        np.testing.assert_array_equal(sorted_dists, [0.2, 0.2, 0.2, 0.5])
        top, _ = sort_pairs(pairs, dists, m=2)
        np.testing.assert_array_equal(top, [[0, 3], [0, 9]])


class TestFactoryIntegration:
    def test_every_registry_backend_runs_all_query_types(self, tiny_uniform):
        """A cheap registry sweep: run(Knn), run(Range) and closest_pairs
        answer on every registered backend (contract details live in
        tests/baselines/test_contracts.py)."""
        import repro

        for name in repro.available_indexes():
            kwargs = {} if name == "exact" else {"seed": 1}
            if name == "sharded":
                kwargs.update(backend="exact", num_shards=2)
            index = create_index(name, **kwargs).fit(tiny_uniform)
            batch = index.run(tiny_uniform[:2] + 0.001, Knn(k=3))
            assert batch.ids.shape == (2, 3), name
            ragged = index.run(tiny_uniform[:2] + 0.001, Range(r=0.6))
            assert ragged.num_queries == 2, name
            pairs = index.closest_pairs(2)
            assert len(pairs) == 2, name
