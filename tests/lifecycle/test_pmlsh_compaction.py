"""PM-LSH compaction drops dead rows instead of re-fitting.

The answers of a PM-LSH index depend on the hash draw, the live n and
projected distances, not on the tree's shape, so ``compact()`` keeps the
draw, filters its arrays and drops the dead slots from the flat tree.
The contract is *invariance*: after compaction every kNN, range and
closest-pair answer is the tombstoned index's, ids mapped through
``result.id_map`` and distances byte-equal.  Both entry points
(``compact()`` and ``compact_index``) run the same hook, and no tree is
built unless the fold rule asks for one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PMLSH, PMLSHParams, ShardedIndex, compact_index
from repro.pmtree.tree import PMTree
from tests.oracles.invariants import check_invariants

N = 900
TAIL = 450
DIM = 16


def _data(offset: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(6, DIM)) * 3.0
    rows = centers[rng.integers(0, 6, size=N + TAIL)] + rng.normal(size=(N + TAIL, DIM))
    return rows + offset


def _queries(data: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(12)
    picks = rng.integers(0, data.shape[0], size=12)
    return data[picks] + rng.normal(size=(12, DIM)) * 0.05


def _tombstoned(offset: float = 0.0, dead_share: float = 0.3) -> PMLSH:
    """Fitted on N rows, TAIL rows left in the unindexed tail, and
    *dead_share* of the indexed rows plus a few tail rows deleted."""
    data = _data(offset)
    params = PMLSHParams(node_capacity=16, num_pivots=3)
    index = PMLSH(params=params, seed=4).fit(data[:N])
    index.add(data[N:])
    assert index.flat_tree.leaf_ids.size == N  # the tail stayed a tail
    rng = np.random.default_rng(13)
    dead = rng.choice(N, size=int(dead_share * N), replace=False)
    index.delete(np.concatenate([dead, N + np.arange(0, TAIL, 7)]))
    return index


def _forbid_builds(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("compaction built a PM-tree")

    monkeypatch.setattr(PMTree, "build", refuse)


def _assert_same_answers(before: dict, after: dict, id_map: np.ndarray) -> None:
    knn_before, knn_after = before["knn"], after["knn"]
    np.testing.assert_array_equal(id_map[knn_before.ids], knn_after.ids)
    assert knn_before.distances.tobytes() == knn_after.distances.tobytes()
    range_before, range_after = before["range"], after["range"]
    np.testing.assert_array_equal(range_before.lims, range_after.lims)
    np.testing.assert_array_equal(id_map[range_before.ids], range_after.ids)
    assert range_before.distances.tobytes() == range_after.distances.tobytes()
    pairs_before, pairs_after = before["pairs"], after["pairs"]
    np.testing.assert_array_equal(id_map[pairs_before.pairs], pairs_after.pairs)
    assert pairs_before.distances.tobytes() == pairs_after.distances.tobytes()


def _answers(index: PMLSH, queries: np.ndarray) -> dict:
    return {
        "knn": index.search(queries, k=10),
        "range": index.range_search(queries, 2.5),
        "pairs": index.closest_pairs(12),
    }


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_answers_survive_compaction_through_the_id_map(offset, monkeypatch):
    index = _tombstoned(offset)
    queries = _queries(_data(offset))
    before = _answers(index, queries)
    _forbid_builds(monkeypatch)
    result = index.compact()
    assert index.num_tombstones == 0 and index.ntotal == index.nlive
    assert len(index.flat_tree) == index.ntotal
    assert index.flat_tree.leaf_ids.size < index.ntotal  # still a tail
    _assert_same_answers(before, _answers(index, queries), result.id_map)


def test_compaction_keeps_the_draw():
    index = _tombstoned()
    projection, pivots = index.projection, index.flat_tree.pivots
    samples = index.distance_distribution.samples
    live = index.live_ids()
    projected = index.projected[live]
    index.compact()
    assert index.projection is projection
    assert index.flat_tree.pivots is pivots
    assert index.distance_distribution.samples is samples
    assert index.projected.tobytes() == projected.tobytes()


def test_both_entry_points_build_the_same_index():
    index = _tombstoned()
    queries = _queries(_data())
    fresh, cloned = compact_index(index)
    assert index.num_tombstones > 0  # the source is untouched
    in_place = index.compact()
    np.testing.assert_array_equal(cloned.id_map, in_place.id_map)
    assert cloned.epoch == in_place.epoch
    got, want = fresh.search(queries, k=10), index.search(queries, k=10)
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()


def test_compaction_runs_the_fold_rule():
    """With a tail present, deleting 60 % of the indexed rows leaves the
    tail larger than ``_TAIL_FOLD_RATIO`` times the live prefix: the one
    fold rule folds it, and the answers still do not move."""
    index = _tombstoned(dead_share=0.6)
    queries = _queries(_data())
    before = _answers(index, queries)
    result = index.compact()
    flat = index.flat_tree
    assert flat.leaf_ids.size == len(flat) == index.ntotal
    assert len(index.tree) == index.ntotal
    _assert_same_answers(before, _answers(index, queries), result.id_map)


def test_every_live_slot_stays_inside_its_leaf_entry():
    index = _tombstoned()
    index.compact()
    assert index.flat_tree.leaf_alive is None
    check_invariants(index.flat_tree)


def test_a_compacted_index_keeps_growing_and_compacting():
    index = _tombstoned()
    data = _data()
    first = index.compact()
    index.add(data[:50] + 0.25)
    index.delete([1, int(index.ntotal) - 1])
    before = index.search(_queries(data), k=10)
    second = index.compact()
    after = index.search(_queries(data), k=10)
    np.testing.assert_array_equal(second.id_map[before.ids], after.ids)
    assert after.distances.tobytes() == before.distances.tobytes()
    assert second.epoch > first.epoch


def test_engine_compacts_shard_locally_without_tombstones(monkeypatch):
    """A growth-triggered compaction (no tombstones) compacts each shard
    in place: no re-stripe, no tree built, the same answers."""
    data = _data()
    engine = ShardedIndex(
        backend="pm-lsh", num_shards=3, seed=5,
        backend_params={"params": PMLSHParams(node_capacity=16)},
    ).fit(data[:N])
    engine.add(data[N:])
    shards = engine.shards
    queries = _queries(data)
    before = engine.search(queries, k=10)
    _forbid_builds(monkeypatch)
    result = engine.compact()
    assert engine.shards == shards
    assert result.removed == 0 and engine.fitted_n == engine.ntotal
    np.testing.assert_array_equal(result.id_map, np.arange(engine.ntotal))
    after = engine.search(queries, k=10)
    assert after.ids.tobytes() == before.ids.tobytes()
    assert after.distances.tobytes() == before.distances.tobytes()
