"""Compaction: policy triggers, in-place re-fit, fresh-object clone,
sharded shard-independent compaction, and id-reuse rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CompactionPolicy,
    ExactKNN,
    PMLSH,
    PMLSHParams,
    ShardedIndex,
    compact_index,
)
from repro.lifecycle.compaction import dense_id_map


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:300]


class TestCompactionPolicy:
    def test_tombstone_ratio_trigger(self, data):
        index = ExactKNN().fit(data)
        policy = CompactionPolicy(max_tombstone_ratio=0.25, max_growth_ratio=None)
        assert not policy.should_compact(index)
        index.delete(np.arange(74))  # 74/300 < 0.25
        assert not policy.should_compact(index)
        index.delete([74])  # 75/300 == 0.25
        assert policy.should_compact(index)
        assert "tombstone ratio" in policy.reason(index)

    def test_growth_ratio_trigger(self, data, rng):
        index = ExactKNN().fit(data[:100])
        policy = CompactionPolicy(max_tombstone_ratio=None, max_growth_ratio=2.0)
        index.add(data[100:199])
        assert not policy.should_compact(index)  # 199/100 < 2
        index.add(data[199:200])
        assert policy.should_compact(index)  # 200/100 == 2
        assert "growth ratio" in policy.reason(index)

    def test_min_tombstones_floor(self, data):
        index = ExactKNN().fit(data[:4])
        policy = CompactionPolicy(
            max_tombstone_ratio=0.25, max_growth_ratio=None, min_tombstones=2
        )
        index.delete([0])  # ratio 0.25 but only one tombstone
        assert not policy.should_compact(index)
        index.delete([1])
        assert policy.should_compact(index)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_tombstone_ratio"):
            CompactionPolicy(max_tombstone_ratio=0.0)
        with pytest.raises(ValueError, match="max_tombstone_ratio"):
            CompactionPolicy(max_tombstone_ratio=1.5)
        with pytest.raises(ValueError, match="max_growth_ratio"):
            CompactionPolicy(max_growth_ratio=1.0)
        with pytest.raises(ValueError, match="min_tombstones"):
            CompactionPolicy(min_tombstones=0)

    def test_both_disabled_never_fires(self, data):
        index = ExactKNN().fit(data)
        index.delete(np.arange(200))
        policy = CompactionPolicy(max_tombstone_ratio=None, max_growth_ratio=None)
        assert policy.reason(index) is None


class TestInPlaceCompact:
    def test_exact_byte_identity_to_rebuild(self, data):
        dead = np.sort(np.random.default_rng(0).choice(300, size=90, replace=False))
        live = np.setdiff1d(np.arange(300), dead)
        index = ExactKNN().fit(data)
        index.delete(dead)
        result = index.compact()
        reference = ExactKNN().fit(data[live])
        queries = data[:10] + 0.01
        got = index.search(queries, k=12)
        want = reference.search(queries, k=12)
        # after compaction ids are dense — directly byte-identical
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert index.ntotal == live.size
        assert index.num_tombstones == 0
        assert result.removed == dead.size
        assert result.before_ntotal == 300
        assert result.after_ntotal == live.size

    def test_id_map_translates_old_ids(self, data):
        index = ExactKNN().fit(data)
        index.delete([0, 5, 7])
        result = index.compact()
        assert result.id_map.shape == (300,)
        assert (result.id_map[[0, 5, 7]] == -1).all()
        # surviving old id -> new dense id points at the same vector
        old = 10
        new = result.id_map[old]
        np.testing.assert_array_equal(index.data[new], data[old])

    def test_epoch_strictly_increases(self, data):
        index = ExactKNN().fit(data)
        index.delete([1])
        before = index.epoch
        result = index.compact()
        assert index.epoch > before
        assert result.epoch == index.epoch

    def test_zero_live_refuses(self, data):
        index = ExactKNN().fit(data[:5])
        index.delete(np.arange(5))
        with pytest.raises(ValueError, match="zero live"):
            index.compact()

    def test_compact_resets_fitted_n(self, data):
        index = ExactKNN().fit(data[:100])
        index.add(data[100:200])
        index.delete(np.arange(10))
        index.compact()
        assert index.fitted_n == 190

    def test_pmlsh_compact_requeries_cleanly(self, data):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(data)
        index.delete(np.arange(100))
        index.compact()
        assert index.ntotal == 200
        batch = index.search(index.data[:5], k=1)
        np.testing.assert_array_equal(batch.ids[:, 0], np.arange(5))


class TestCompactIndexClone:
    def test_fresh_object_original_untouched(self, data):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(data)
        index.delete(np.arange(60))
        fresh, result = compact_index(index)
        assert fresh is not index
        assert index.ntotal == 300 and index.num_tombstones == 60  # untouched
        assert fresh.ntotal == 240 and fresh.num_tombstones == 0
        assert fresh.epoch > index.epoch
        assert isinstance(fresh, PMLSH)
        # constructor kwargs survived the clone
        assert fresh.params.node_capacity == 32
        assert result.removed == 60

    def test_unfitted_refuses(self):
        with pytest.raises(RuntimeError, match="unfitted"):
            compact_index(ExactKNN())

    def test_dense_id_map(self):
        id_map = dense_id_map(np.array([1, 3, 4]), 6)
        assert id_map.tolist() == [-1, 0, -1, 1, 2, -1]


class TestShardedCompact:
    def test_shards_compact_independently(self, data):
        index = ShardedIndex(backend="exact", num_shards=3, seed=3).fit(data)
        dead = np.arange(0, 90)
        index.delete(dead)
        per_shard_before = [s.ntotal for s in index.shards]
        result = index.compact()
        assert result.removed == 90
        assert index.ntotal == 210
        assert index.nlive == 210
        assert index.num_tombstones == 0
        # every shard shed exactly its own dead rows; no global re-stripe
        for shard, before in zip(index.shards, per_shard_before):
            assert shard.ntotal <= before
            assert shard.num_tombstones == 0
        # results match a fresh exact index over the survivors
        live = np.setdiff1d(np.arange(300), dead)
        reference = ExactKNN().fit(data[live])
        queries = data[95:105] + 0.01
        got = index.search(queries, k=8)
        want = reference.search(queries, k=8)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_allclose(got.distances, want.distances, rtol=1e-9)

    def test_compact_restarts_the_cursor_from_the_live_count(self, data):
        """Compaction re-packs each shard, so the stripe restarts from the
        live count: with 14 live rows over 4 shards, the next point goes
        to shard 14 mod 4 = 2."""
        index = ShardedIndex(backend="exact", num_shards=4, seed=3).fit(data[:15])
        index.delete([0])
        index.compact()
        (new_id,) = index.add(data[15:16])
        assert index.locate(int(new_id))[0] == 14 % 4
        (next_id,) = index.add(data[16:17])
        assert index.locate(int(next_id))[0] == 15 % 4

    def test_counters_survive_compaction(self, data):
        index = ShardedIndex(backend="exact", num_shards=3, seed=3).fit(data)
        index.delete(np.arange(30))
        index.compact()
        stats = index.stats()
        assert stats.engine_points_deleted == 30
        assert stats.engine_compactions == 1
        assert stats.engine_nlive == 270

    def test_too_few_live_refuses(self, data):
        index = ShardedIndex(backend="exact", num_shards=3, seed=3).fit(data[:6])
        index.delete(np.arange(2, 6))
        with pytest.raises(ValueError):
            index.compact()


class TestIdReuseForbidden:
    def test_add_after_delete_never_reuses(self, data):
        index = ExactKNN().fit(data[:100])
        index.delete([98, 99])
        new_ids = index.add(data[100:103])
        # dead ids 98/99 are never handed out again
        assert new_ids.tolist() == [100, 101, 102]
        assert index.nlive == 101

    def test_sharded_add_after_delete_never_reuses(self, data):
        index = ShardedIndex(backend="exact", num_shards=3, seed=3).fit(data[:100])
        index.delete([97, 98, 99])
        new_ids = index.add(data[100:104])
        assert new_ids.min() >= 100
        assert np.unique(new_ids).size == 4

    def test_compaction_is_the_only_renumbering(self, data):
        index = ExactKNN().fit(data[:100])
        index.delete([0])
        # before compaction: ids stay sparse, 0 never reappears
        batch = index.search(data[:4] + 0.01, k=5)
        assert 0 not in batch.ids
        result = index.compact()
        # after compaction: dense renumbering, old ids translate via id_map
        assert result.id_map[1] == 0
        assert index.ntotal == 99
