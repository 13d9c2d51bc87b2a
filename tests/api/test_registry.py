"""Tests for the index registry and the create_index factory."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.baselines.base import ANNIndex, QueryResult
from repro.registry import available_indexes, create_index, get_index_class, register_index

ALL_NAMES = [
    "c2lsh",
    "e2lsh",
    "exact",
    "lsb-forest",
    "lscan",
    "multi-probe",
    "pm-lsh",
    "qalsh",
    "r-lsh",
    "sharded",
    "srs",
]

#: Constructor kwargs per registry name (exact takes no seed).
KWARGS = {name: ({} if name == "exact" else {"seed": 3}) for name in ALL_NAMES}


class TestListing:
    def test_all_algorithms_registered(self):
        assert available_indexes() == ALL_NAMES

    def test_package_level_exports(self):
        assert repro.available_indexes() == ALL_NAMES
        assert repro.create_index is create_index


class TestResolution:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_create_constructs_ann_index(self, name):
        index = create_index(name, **KWARGS[name])
        assert isinstance(index, ANNIndex)
        assert not index.is_built

    @pytest.mark.parametrize(
        "variant", ["pm-lsh", "PM-LSH", "pmlsh", "pm_lsh", "  Pm LSH  "]
    )
    def test_name_normalisation(self, variant):
        assert get_index_class(variant) is repro.PMLSH

    def test_aliases_resolve(self):
        assert get_index_class("lsb") is repro.LSBForest
        assert get_index_class("brute-force") is repro.ExactKNN
        assert get_index_class("linear-scan") is repro.LinearScan
        assert get_index_class("engine") is repro.ShardedIndex

    @pytest.mark.parametrize("name", ["process-sharded", "process-engine"])
    def test_process_engine_is_a_keyword_not_a_name(self, name):
        """The process-backed engine is ``create_index("sharded",
        pool_backend="process")``; it has no registry name of its own."""
        assert name not in available_indexes()
        with pytest.raises(KeyError, match="unknown index"):
            get_index_class(name)
        engine = create_index("sharded", pool_backend="process")
        assert isinstance(engine, repro.ShardedIndex)
        assert engine.pool_backend == "process"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="pm-lsh"):
            create_index("no-such-index")

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(KeyError, match="Did you mean 'pm-lsh'"):
            create_index("pmlshh")
        with pytest.raises(KeyError, match="Did you mean 'sharded'"):
            create_index("shard")

    def test_unknown_name_without_close_match_has_no_hint(self):
        with pytest.raises(KeyError) as excinfo:
            create_index("zzzzzzzz")
        assert "Did you mean" not in str(excinfo.value)

    def test_constructor_kwargs_pass_through(self):
        index = create_index("lscan", portion=0.4, seed=1)
        assert index.portion == 0.4

    def test_registry_name_attribute(self):
        assert repro.PMLSH.registry_name == "pm-lsh"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_factory_fit_query_round_trip(self, name, tiny_uniform):
        """Every registered algorithm is constructible by name and answers
        queries through the uniform lifecycle."""
        index = create_index(name, **KWARGS[name]).fit(tiny_uniform)
        result = index.query(tiny_uniform[0] + 0.001, k=3)
        assert len(result) == 3
        batch = index.search(tiny_uniform[:4] + 0.001, k=3)
        assert batch.ids.shape == (4, 3)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_index("pm-lsh")
            class Impostor(ANNIndex):  # pragma: no cover - never instantiated
                def _query_one(self, q, k):
                    raise NotImplementedError

    def test_reregistering_same_class_is_noop(self):
        cls = get_index_class("pm-lsh")
        register_index("pm-lsh")(cls)
        assert get_index_class("pm-lsh") is cls

    def test_custom_registration_round_trip(self, tiny_uniform):
        @register_index("test-dummy-knn")
        class DummyKNN(ANNIndex):
            name = "DummyKNN"

            def _fit(self):
                pass

            def _query_one(self, q, k):
                dists = np.linalg.norm(self.data - q, axis=1)
                order = np.argsort(dists, kind="stable")[:k]
                return QueryResult(ids=order, distances=dists[order])

        index = create_index("test-dummy-knn").fit(tiny_uniform)
        result = index.query(tiny_uniform[5], k=1)
        assert int(result.ids[0]) == 5

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_index("  - ")
