"""Post-delete result equivalence: a tombstoned index must answer exactly
like an index that never held the dead points.

For the exact scan paths (Exact, full-portion LinearScan, sharded-over-
exact, and the shared range / closest-pair fallbacks) the contract is
byte-identity — distances AND tie order — with the dense reference ids
mapped back through the sorted live-id array.  For PM-LSH's native
approximate paths the contract is: no dead id ever surfaces, and results
equal the recursive pointer-tree oracle's over the same tombstoned index.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ExactKNN, LinearScan, PMLSH, PMLSHParams, Range, ShardedIndex, kernels
from repro.baselines import multiprobe, rlsh, srs
from repro.core.radius import range_candidate_budget
from repro.datasets import distance
from tests.oracles import recursive_probe

GENERIC_BACKENDS = sorted(
    set(repro.available_indexes()) - {"sharded"}
)


def make_backend(name):
    # the exact oracle is parameter-free; everything else takes a seed
    return repro.create_index(name) if name == "exact" else repro.create_index(name, seed=3)


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:300]


@pytest.fixture(scope="module")
def dead_ids():
    rng = np.random.default_rng(7)
    return np.sort(rng.choice(300, size=90, replace=False))


@pytest.fixture(scope="module")
def live_ids(dead_ids):
    return np.setdiff1d(np.arange(300), dead_ids)


@pytest.fixture(scope="module")
def queries(data):
    return data[:12] + 0.01


@pytest.fixture()
def verified(monkeypatch):
    """Record what every verification entry point is handed: the rows
    gathered by the kernel set's ``verify_distances`` (LSH baselines,
    PM-LSH), by the exact scan's (Exact, LScan) and by
    ``point_to_points_distances`` (Multi-Probe, R-LSH), and the
    differences SRS takes ``np.linalg.norm`` of."""
    rows, diffs = [], []

    def gathered(verify):
        def record(data, ids, queries, rep_q):
            rows.append(data[ids])
            return verify(data, ids, queries, rep_q)

        return record

    def pointwise(distances):
        return lambda q, points: rows.append(points) or distances(q, points)

    kernel = kernels.active()
    monkeypatch.setattr(kernel, "verify_distances", gathered(kernel.verify_distances))
    monkeypatch.setattr(distance, "verify_distances", gathered(distance.verify_distances))
    for module in (multiprobe, rlsh):
        monkeypatch.setattr(
            module, "point_to_points_distances", pointwise(module.point_to_points_distances)
        )
    norm = np.linalg.norm
    monkeypatch.setattr(
        srs.np.linalg, "norm", lambda x, *a, **kw: diffs.append(x) or norm(x, *a, **kw)
    )
    return rows, diffs


def assert_knn_identical(batch, reference, live_ids):
    """Tombstoned result == reference over live rows, ids mapped back."""
    np.testing.assert_array_equal(batch.distances, reference.distances)
    np.testing.assert_array_equal(batch.ids, live_ids[reference.ids])


class TestExactByteIdentity:
    def test_batch_knn(self, data, dead_ids, live_ids, queries):
        index = ExactKNN().fit(data)
        index.delete(dead_ids)
        reference = ExactKNN().fit(data[live_ids])
        assert_knn_identical(
            index.search(queries, k=10), reference.search(queries, k=10), live_ids
        )

    def test_single_query(self, data, dead_ids, live_ids, queries):
        index = ExactKNN().fit(data)
        index.delete(dead_ids)
        reference = ExactKNN().fit(data[live_ids])
        got = index.query(queries[0], k=10)
        want = reference.query(queries[0], k=10)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.ids, live_ids[want.ids])

    def test_with_duplicate_rows_ties_included(self, data, queries):
        # duplicate rows force exact distance ties; tie order must match too
        doubled = np.vstack([data, data[:50]])
        index = ExactKNN().fit(doubled)
        index.delete(np.arange(25))  # kill half the duplicated prefix
        live = np.arange(25, doubled.shape[0])
        reference = ExactKNN().fit(doubled[live])
        assert_knn_identical(
            index.search(queries, k=20), reference.search(queries, k=20), live
        )

    def test_stats_report_tombstones(self, data, dead_ids, queries):
        index = ExactKNN().fit(data)
        index.delete(dead_ids)
        batch = index.search(queries, k=5)
        assert batch.stats["tombstones"] == float(dead_ids.size)
        assert batch.stats["nlive"] == float(300 - dead_ids.size)


class TestScanBackends:
    def test_lscan_full_portion(self, data, dead_ids, live_ids, queries):
        index = LinearScan(portion=1.0, seed=3).fit(data)
        index.delete(dead_ids)
        reference = LinearScan(portion=1.0, seed=3).fit(data[live_ids])
        assert_knn_identical(
            index.search(queries, k=10), reference.search(queries, k=10), live_ids
        )

    def test_sharded_exact(self, data, dead_ids, live_ids, queries):
        index = ShardedIndex(backend="exact", num_shards=3, seed=3).fit(data)
        index.delete(dead_ids)
        reference = ExactKNN().fit(data[live_ids])
        got = index.search(queries, k=10)
        want = reference.search(queries, k=10)
        # per-shard submatrix shapes change under tombstones, so BLAS block
        # scheduling jitters distances at ~1e-12; ids must still match exactly
        np.testing.assert_array_equal(got.ids, live_ids[want.ids])
        np.testing.assert_allclose(got.distances, want.distances, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(repro.available_indexes()))
    def test_generic_backends_never_return_dead_ids(
        self, name, data, dead_ids, queries, verified
    ):
        """One tombstone rule: every backend drops dead ids where it
        gathers candidates, so no dead row ever reaches a distance
        computation — it takes no slot of a candidate budget, a stopping
        test or a result."""
        index = make_backend(name).fit(data)
        index.delete(dead_ids)
        try:
            batch = index.search(queries, k=10)
        finally:
            if hasattr(index, "close"):
                index.close()
        returned = batch.ids[batch.ids >= 0]
        assert not np.isin(returned, dead_ids).any(), f"{name} leaked dead ids"
        rows, diffs = verified
        assert rows or diffs, f"{name} verified nothing"
        dead_rows = {row.tobytes() for row in data[dead_ids]}
        dead_diffs = {diff.tobytes() for q in queries for diff in data[dead_ids] - q}
        assert not any(row.tobytes() in dead_rows for block in rows for row in block)
        assert not any(np.asarray(diff).tobytes() in dead_diffs for diff in diffs)

    # "process-sharded": the sharded engine over the worker-process pool.
    @pytest.mark.parametrize(
        "name", sorted(repro.available_indexes()) + ["process-sharded"]
    )
    def test_candidates_are_counted_on_the_live_rows(self, name, data, queries):
        """With 270 of 300 rows dead, no backend reports more verified
        candidates for a query than there are live rows: a dead id takes
        no slot of a candidate count, however wide the backend's budget."""
        if name == "process-sharded":
            index = repro.create_index("sharded", pool_backend="process", seed=3)
        else:
            index = make_backend(name)
        index.fit(data)
        index.delete(np.arange(0, 270))
        try:
            batch = index.search(queries, k=10)
        finally:
            if hasattr(index, "close"):
                index.close()
        assert batch.stats["nlive"] == 30.0
        counts = [stats["candidates"] for stats in batch.per_query_stats]
        assert len(counts) == len(queries)
        assert 0 < min(counts) and max(counts) <= 30, f"{name} counted dead ids"

    @pytest.mark.parametrize("dead", ["spread", "all-but-ten"])
    def test_e2lsh_answers_like_a_fit_on_the_live_rows(self, dead, data, dead_ids, queries):
        """E2LSH's hash functions do not depend on the data, so dropping
        dead ids from the probed buckets (and drawing a miss's fallback
        from the live ids) reproduces the index fit on the live rows alone
        byte for byte — ids mapped back, distances and stats included."""
        dead = dead_ids if dead == "spread" else np.arange(10, data.shape[0])
        live = np.setdiff1d(np.arange(data.shape[0]), dead)
        index = make_backend("e2lsh").fit(data)
        index.delete(dead)
        reference = make_backend("e2lsh").fit(data[live])
        got = index.search(queries, k=10)
        want = reference.search(queries, k=10)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.ids, np.where(want.ids >= 0, live[want.ids], -1))
        assert got.per_query_stats == want.per_query_stats


class TestSingleQueryEntry:
    """``query()`` is a one-row ``run()``: after deletes it must equal
    ``search()[0]`` byte for byte, never yield a dead id, and validate k
    against the live count — on every registry backend."""

    # "process-sharded": the sharded engine over the worker-process pool.
    @pytest.mark.parametrize(
        "name", sorted(repro.available_indexes()) + ["process-sharded"]
    )
    def test_query_equals_search_row_after_deletes(self, name, data, queries):
        dead = np.arange(0, 240)  # heavy deletes: dead ids crowd every window

        def build():  # fresh per entry point: some fallbacks consume rng state
            if name == "exact":
                index = repro.create_index(name)
            elif name == "process-sharded":
                index = repro.create_index("sharded", pool_backend="process", seed=3)
            else:
                index = repro.create_index(name, seed=3)
            index.fit(data)
            index.delete(dead)
            return index

        via_search, via_query = build(), build()
        try:
            for q in queries[:4]:
                want = via_search.search(q[None, :], k=10)[0]
                got = via_query.query(q, k=10)
                assert got.ids.tobytes() == want.ids.tobytes()
                assert got.distances.tobytes() == want.distances.tobytes()
                assert got.stats == want.stats
                assert not np.isin(got.ids, dead).any(), f"{name} leaked dead ids"
            with pytest.raises(ValueError, match="k must be in"):
                via_query.query(queries[0], k=61)  # 60 live points
        finally:
            for index in (via_search, via_query):
                if hasattr(index, "close"):
                    index.close()


class TestFallbackQueryTypes:
    """Range and closest-pair ride the exact base fallbacks on most
    backends — there the equivalence is byte-identity for every backend."""

    @pytest.mark.parametrize("name", sorted(set(GENERIC_BACKENDS) - {"pm-lsh"}))
    def test_range_fallback_identity(self, name, data, dead_ids, live_ids, queries):
        index = make_backend(name).fit(data)
        index.delete(dead_ids)
        reference = ExactKNN().fit(data[live_ids])
        r = 4.0
        got = index.run(queries, Range(r=r))
        want = reference.run(queries, Range(r=r))
        np.testing.assert_array_equal(got.lims, want.lims)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.ids, live_ids[want.ids])

    @pytest.mark.parametrize("name", sorted(set(GENERIC_BACKENDS) - {"pm-lsh"}))
    def test_closest_pairs_fallback_identity(self, name, data, dead_ids, live_ids):
        index = make_backend(name).fit(data)
        index.delete(dead_ids)
        reference = ExactKNN().fit(data[live_ids])
        got = index.closest_pairs(8)
        want = reference.closest_pairs(8)
        np.testing.assert_array_equal(got.distances, want.distances)
        np.testing.assert_array_equal(got.pairs, live_ids[want.pairs])

    def test_sharded_range_and_cp(self, data, dead_ids, live_ids, queries):
        index = ShardedIndex(backend="exact", num_shards=3, seed=3).fit(data)
        index.delete(dead_ids)
        reference = ExactKNN().fit(data[live_ids])
        got = index.run(queries, Range(r=4.0))
        want = reference.run(queries, Range(r=4.0))
        np.testing.assert_array_equal(got.lims, want.lims)
        np.testing.assert_array_equal(got.ids, live_ids[want.ids])
        got_cp = index.closest_pairs(8)
        want_cp = reference.closest_pairs(8)
        np.testing.assert_array_equal(got_cp.pairs, live_ids[want_cp.pairs])
        np.testing.assert_allclose(got_cp.distances, want_cp.distances, rtol=1e-9)


class TestPMLSHNative:
    """PM-LSH filters inside its probe: dead ids never enter the
    verification window, and the flat traversal's masked leaves answer
    exactly like the pointer-tree oracle excluding the dead set."""

    @pytest.fixture()
    def index(self, data, dead_ids):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(data)
        index.delete(dead_ids)
        return index

    def test_knn_no_dead_ids_and_matches_oracle(self, index, dead_ids, queries):
        got = index.search(queries, k=10)
        want = recursive_probe.knn(index, queries, 10)
        assert not np.isin(got.ids, dead_ids).any()
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.per_query_stats == want.per_query_stats

    def test_self_queries_hit_live_selves(self, index, live_ids):
        # querying live points exactly: nearest neighbour is the point itself
        probe = live_ids[:10]
        batch = index.search(index.data[probe], k=1)
        np.testing.assert_array_equal(batch.ids[:, 0], probe)
        np.testing.assert_allclose(batch.distances[:, 0], 0.0, atol=1e-9)

    def test_range_no_dead_ids_and_matches_oracle(self, index, dead_ids, queries):
        got = index.run(queries, Range(r=4.0))
        want = recursive_probe.range_search(index, queries, Range(r=4.0))
        assert not np.isin(got.ids, dead_ids).any()
        np.testing.assert_array_equal(got.lims, want.lims)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)

    def test_closest_pairs_no_dead_ids(self, data, dead_ids):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(data)
        index.delete(dead_ids)
        pairs = index.closest_pairs(8)
        assert not np.isin(pairs.pairs, dead_ids).any()

    def test_budget_scales_with_nlive(self, data, dead_ids):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(data)
        full_budget = index.candidate_budget(10)
        index.delete(dead_ids)
        assert index.candidate_budget(10) < full_budget

    def test_range_budget_is_sized_on_the_live_rows(self, data, queries):
        """Like kNN's ⌈βn⌉ + k: a half-deleted index sizes its default range
        budget — ⌈βn⌉ plus the expected ball population n·F(c·r) — on the
        rows that can still be candidates, not on every row it ever held."""
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(data)
        index.delete(np.arange(0, data.shape[0], 2))
        r = 4.0
        want = range_candidate_budget(
            index.distance_distribution, index.nlive, index.solved.beta, index.params.c * r
        )
        assert index.nlive == data.shape[0] // 2
        assert index.run(queries, Range(r=r)).stats["budget"] == float(want)
        assert want < range_candidate_budget(
            index.distance_distribution, index.ntotal, index.solved.beta, index.params.c * r
        )
