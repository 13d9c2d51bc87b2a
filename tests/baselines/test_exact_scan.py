"""The one exact scan against the difference-tensor oracle.

Exact kNN, range and closest pairs — and LScan's kNN, and every
backend's closest pairs — answer through the blocked GEMM scan of
:mod:`repro.datasets.distance`, which computes exact distances only
inside the band contract's error bands.
``tests/oracles/exact_fallbacks.py`` answers the same calls by full
difference tensors; every cell here holds the two byte for byte: ids,
distances, CSR offsets and stats, far from the origin, under tombstones,
with ties planted at the k-th, the r and the m-th boundary.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import PMLSH, create_index
from repro.baselines.exact import ExactKNN
from repro.baselines.lscan import LinearScan
from repro.datasets import distance
from repro.datasets.synthetic import gaussian_mixture
from repro.evaluation.ground_truth import (
    compute_closest_pairs_ground_truth,
    compute_ground_truth,
    compute_range_ground_truth,
)
from tests.oracles.exact_fallbacks import lscan_query, reference_exact


def assert_same(got, want) -> None:
    """Byte equality of two results of one query type, stats included."""
    for name in ("ids", "distances", "lims", "pairs"):
        if hasattr(want, name):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.stats == want.stats
    assert getattr(got, "per_query_stats", ()) == getattr(want, "per_query_stats", ())


def answers(index, queries, k, r, m):
    return (
        index.search(queries, k),
        index.range_search(queries, r),
        index.closest_pairs(m),
    )


def assert_matches_oracle(index, queries, k, r, m) -> None:
    got = answers(index, queries, k, r, m)
    with reference_exact(index):
        want = answers(index, queries, k, r, m)
    for g, w in zip(got, want):
        assert_same(g, w)


def planted(offset: float, d: int = 16, seed: int = 0):
    """150 base rows stored three times each (ties at every boundary),
    shifted by *offset*; queries are stored rows (distance-0 ties) and
    perturbed ones."""
    rng = np.random.default_rng(seed)
    data = np.repeat(rng.normal(size=(150, d)), 3, axis=0) + offset
    queries = np.vstack([data[::41], data[5::29] + rng.normal(size=(16, d)) * 0.3])
    return data, queries


def tied_radius(data, queries, rank: int) -> float:
    """An exact distance that occurs in the data: query 0's rank-th
    neighbour, so matches sit exactly on the radius."""
    diff = data - queries[0]
    return float(np.sort(np.sqrt(np.einsum("ij,ij->i", diff, diff)))[rank])


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
@pytest.mark.parametrize("tombstoned", [False, True], ids=["all-live", "every-7th-deleted"])
def test_scan_equals_difference_tensors(offset, tombstoned):
    data, queries = planted(offset)
    index = ExactKNN().fit(data)
    if tombstoned:
        index.delete(np.arange(0, data.shape[0], 7))
    # k = 7 and m = 200 cut inside groups of equal distances (three
    # copies per row: 450 zero-distance pairs); r is an exact distance.
    assert_matches_oracle(index, queries, 7, tied_radius(data, queries, 10), 200)
    assert_matches_oracle(index, queries, 1, tied_radius(data, queries, 40), 500)


def sharded(backend, carrier):
    pool = dict(pool_backend="process", num_workers=2) if carrier == "process" else {}
    return lambda: create_index("sharded", backend=backend, num_shards=3, seed=2, **pool)


CP_ROUTES = {
    "pm-lsh": lambda: PMLSH(seed=2),
    **{
        f"sharded-{backend}-{carrier}": sharded(backend, carrier)
        for backend in ("pm-lsh", "exact")
        for carrier in ("thread", "process")
    },
}


def cp_cell(make, state: str, offset: float):
    """2300 rows, 23 of them stored twice (distance-0 ties), all fitted;
    or 1100 fitted, 900 added (unindexed PM-LSH tail rows), every 7th
    deleted, and optionally compacted and grown by 300.  Every route
    ends holding the same rows under the same ids."""
    base = gaussian_mixture(2277, 12, num_clusters=50, seed=2)
    picks = np.random.default_rng(2).choice(2277, size=23, replace=False)
    data = np.vstack([base, base[picks]]) + offset
    index = make().fit(data if state == "all-live" else data[:1100])
    if state != "all-live":
        index.search(data[:2], 1)  # a process carrier publishes before the writes
        index.add(data[1100:2000])
        index.delete(np.arange(0, 2000, 7))
    if state == "compacted-then-grown":
        index.compact()
        index.add(data[2000:])
    return index


@functools.cache
def cp_oracle(state: str, offset: float) -> dict:
    index = cp_cell(ExactKNN, state, offset)
    with reference_exact(index):
        return {m: index.closest_pairs(m) for m in (1, 10, 50)}


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
@pytest.mark.parametrize("state", ["all-live", "tail", "compacted-then-grown"])
@pytest.mark.parametrize("route", list(CP_ROUTES))
def test_closest_pairs_on_every_route(route, state, offset):
    index = cp_cell(CP_ROUTES[route], state, offset)
    try:
        if route == "pm-lsh" and state == "tail":
            assert index.flat_tree.leaf_ids.size == 1100  # the tail is not folded
        for m, pairs in cp_oracle(state, offset).items():
            assert_same(index.closest_pairs(m), pairs)
    finally:
        getattr(index, "close", lambda: None)()


@pytest.mark.parametrize("tombstoned", [False, True], ids=["all-live", "every-7th-deleted"])
def test_k_nlive_and_m_every_pair(tombstoned):
    data, queries = planted(1e6, d=8)
    data = data[:60]
    index = ExactKNN().fit(data)
    if tombstoned:
        index.delete(np.arange(0, data.shape[0], 7))
    nlive = index.nlive
    assert_matches_oracle(index, queries, nlive, 1e9, nlive * (nlive - 1) // 2)
    for k in (0, nlive + 1):  # k is held to the live rows, not the stored ones
        with pytest.raises(ValueError, match=rf"k must be in \[1, {nlive}\]"):
            distance.chunked_knn(queries, data, k, alive=index._alive_rows())


def test_one_dimension():
    rng = np.random.default_rng(1)
    data = np.round(rng.normal(size=(400, 1)) * 20.0)  # integer grid: ties
    queries = np.vstack([data[:5], data[5:10] + 0.5])
    index = ExactKNN().fit(data)
    index.delete(np.arange(3, 400, 11))
    assert_matches_oracle(index, queries, 9, 2.0, 300)


def test_all_zero_data():
    """tol = 0: the band is exactly the tie at the boundary, and every
    row ties."""
    data = np.zeros((80, 12))
    queries = np.zeros((3, 12))
    index = ExactKNN().fit(data)
    index.delete(np.arange(0, 80, 9))
    assert float(distance.expansion_tol(12, 0.0)) == 0.0
    assert_matches_oracle(index, queries, 10, 1e-300, 100)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_running_bounds_across_small_blocks(monkeypatch, offset):
    """Seven query rows per block: the closest-pair join carries its
    running m-th distance across 65 blocks, and far from the origin its
    estimates are noise that only the bands absorb."""
    data, queries = planted(offset)
    data = data + np.random.default_rng(5).normal(size=data.shape) * 1e-3
    monkeypatch.setattr(distance, "_SCAN_BYTES", 8 * data.shape[0] * 7)
    index = ExactKNN().fit(data)
    index.delete(np.arange(0, data.shape[0], 7))
    assert_matches_oracle(index, queries, 7, tied_radius(data, queries, 10), 200)


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_blocking_changes_no_bit(monkeypatch, rows_per_block):
    data, queries = planted(1e6)
    index = ExactKNN().fit(data)
    index.delete(np.arange(0, data.shape[0], 7))
    args = (queries, 7, tied_radius(data, queries, 10), 200)
    default = answers(index, *args)
    monkeypatch.setattr(distance, "_SCAN_BYTES", 8 * data.shape[0] * rows_per_block)
    for got, want in zip(answers(index, *args), default):
        assert_same(got, want)


def test_ground_truth_calls_the_scan():
    data, queries = planted(0.0)
    index = ExactKNN().fit(data)
    r = tied_radius(data, queries, 10)
    truth = compute_range_ground_truth(data, queries, r)
    want = index.range_search(queries, r)
    for name in ("lims", "ids", "distances"):
        assert getattr(truth, name).tobytes() == getattr(want, name).tobytes()
    pairs = compute_closest_pairs_ground_truth(data, 300)
    want_pairs = index.closest_pairs(300)
    assert pairs.pairs.tobytes() == want_pairs.pairs.tobytes()
    assert pairs.distances.tobytes() == want_pairs.distances.tobytes()


def test_ground_truth_rejects_non_finite_input():
    data = np.random.default_rng(0).normal(size=(50, 4))
    queries = data[:3].copy()
    queries[1, 2] = np.nan
    with pytest.raises(ValueError, match="queries must be finite"):
        compute_ground_truth(data, queries, 5)
    with pytest.raises(ValueError, match="queries must be finite"):
        compute_range_ground_truth(data, queries, 1.0)
    with pytest.raises(ValueError, match="data must be finite"):
        compute_closest_pairs_ground_truth(np.vstack([data, queries]), 3)


class TestLinearScan:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_portion_equals_exact_on_planted_duplicates(self, seed):
        """300 rows stored four times: every query's k = 6 window ends in
        a tie, which LScan resolves by ``(distance, id)`` like every
        other index."""
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(300, 8))
        data = np.repeat(base, 4, axis=0)
        queries = base[rng.choice(300, 50, replace=False)] + rng.normal(size=(50, 8)) * 0.05
        got = LinearScan(portion=1.0, seed=seed).fit(data).search(queries, 6)
        want = ExactKNN().fit(data).search(queries, 6)
        assert_same(got, want)

    @pytest.mark.parametrize("tombstoned", [False, True], ids=["all-live", "every-5th-deleted"])
    def test_tie_free_answers_unchanged(self, tombstoned):
        """On data without ties the scan returns what the former
        per-query loop did, byte for byte."""
        rng = np.random.default_rng(7)
        data = rng.normal(size=(900, 24))
        queries = rng.normal(size=(20, 24))
        index = LinearScan(portion=0.7, seed=3).fit(data)
        if tombstoned:
            index.delete(np.arange(0, 900, 5))
        got = index.search(queries, 10)
        for row, q in enumerate(queries):
            want = lscan_query(index, q, 10)
            assert got.ids[row].tobytes() == want.ids.tobytes()
            assert got.distances[row].tobytes() == want.distances.tobytes()
            assert got.per_query_stats[row]["candidates"] == want.stats["candidates"]

    def test_fewer_live_rows_than_k_pad(self):
        data = np.random.default_rng(2).normal(size=(40, 4))
        index = LinearScan(portion=0.25, seed=0).fit(data)
        index.delete(index._subset[:7])
        got = index.search(data[:3], 5)
        assert got.per_query_stats[0]["candidates"] == 3.0
        assert (got.ids[:, 3:] == -1).all() and np.isinf(got.distances[:, 3:]).all()
        assert set(got.ids[:, :3].ravel()) <= set(index._subset[7:].tolist())
