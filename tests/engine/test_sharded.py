"""Tests for the ShardedIndex serving engine.

The load-bearing guarantees:

* sharded search over the *exact* backend merges to results identical to
  a single exact index on the same data (ids and distances);
* a fixed engine seed gives identical results across runs and across
  worker counts, for every shard count;
* ``add()`` routing keeps global ids append-only and stable, with the
  global → (shard, local) mapping consistent at all times.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ShardedIndex, create_index
from repro.obs import MetricsSnapshot


@pytest.fixture(scope="module")
def queries(small_clustered):
    rng = np.random.default_rng(77)
    return small_clustered[:20] + rng.normal(size=(20, small_clustered.shape[1])) * 0.05


class TestExactEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_matches_single_exact_index(self, small_clustered, queries, num_shards):
        single = create_index("exact").fit(small_clustered)
        sharded = create_index(
            "sharded", backend="exact", num_shards=num_shards
        ).fit(small_clustered)
        expected = single.search(queries, k=10)
        merged = sharded.search(queries, k=10)
        np.testing.assert_array_equal(merged.ids, expected.ids)
        np.testing.assert_allclose(merged.distances, expected.distances, rtol=1e-12)

    def test_matches_after_interleaved_adds(self, small_clustered, queries):
        base, extra = small_clustered[:700], small_clustered[700:]
        sharded = create_index("sharded", backend="exact", num_shards=4).fit(base)
        sharded.add(extra[:50])
        sharded.add(extra[50:])
        single = create_index("exact").fit(small_clustered)
        expected = single.search(queries, k=10)
        merged = sharded.search(queries, k=10)
        np.testing.assert_array_equal(merged.ids, expected.ids)
        np.testing.assert_allclose(merged.distances, expected.distances, rtol=1e-12)

    def test_k_exceeding_shard_size_stays_exact(self, tiny_uniform):
        """With 200 points over 8 shards, k=40 > 25 per shard: every shard
        contributes everything it can and the merge is still exact."""
        single = create_index("exact").fit(tiny_uniform)
        sharded = create_index("sharded", backend="exact", num_shards=8).fit(
            tiny_uniform
        )
        q = tiny_uniform[:5] + 0.001
        expected = single.search(q, k=40)
        merged = sharded.search(q, k=40)
        np.testing.assert_array_equal(merged.ids, expected.ids)

    def test_single_query_path_matches_batch(self, small_clustered, queries):
        sharded = create_index("sharded", backend="exact", num_shards=3).fit(
            small_clustered
        )
        batch = sharded.search(queries, k=5)
        single = sharded.query(queries[0], k=5)
        np.testing.assert_array_equal(single.ids, batch.ids[0])


class TestDeterminism:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_fixed_seed_reproduces(self, small_clustered, queries, num_shards):
        def run():
            engine = create_index(
                "sharded", backend="pm-lsh", num_shards=num_shards, seed=9
            ).fit(small_clustered)
            return engine.search(queries, k=10)

        first, second = run(), run()
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_allclose(first.distances, second.distances, rtol=1e-12)

    def test_shard_seeds_differ_under_one_master_seed(self, small_clustered):
        engine = create_index(
            "sharded", backend="pm-lsh", num_shards=2, seed=3
        ).fit(small_clustered)
        a, b = engine.shards
        assert not np.allclose(
            a.projection.directions, b.projection.directions
        ), "shards must draw independent projections from the master seed"

    def test_backend_params_seed_is_derived_not_copied(self, small_clustered):
        """A seed supplied through backend_params acts as the master seed:
        deterministic, but never the *same* seed in every shard."""

        def run():
            return create_index(
                "sharded",
                backend="pm-lsh",
                num_shards=2,
                backend_params={"seed": 5},
            ).fit(small_clustered)

        engine = run()
        a, b = engine.shards
        assert not np.allclose(a.projection.directions, b.projection.directions)
        again = run()
        np.testing.assert_array_equal(
            a.projection.directions, again.shards[0].projection.directions
        )


class TestAddRouting:
    def test_global_ids_stay_stable_and_contiguous(self, small_clustered):
        base, extra = small_clustered[:600], small_clustered[600:650]
        engine = create_index("sharded", backend="exact", num_shards=4).fit(base)
        before = [m.copy() for m in engine._id_maps]
        new_ids = engine.add(extra)
        np.testing.assert_array_equal(new_ids, np.arange(600, 650))
        assert engine.ntotal == 650
        # Existing assignments never move: the old maps are prefixes.
        for old, now in zip(before, engine._id_maps):
            np.testing.assert_array_equal(now[: old.size], old)

    def test_locate_round_trip(self, small_clustered):
        engine = create_index("sharded", backend="exact", num_shards=3).fit(
            small_clustered[:500]
        )
        engine.add(small_clustered[500:530])
        for gid in [0, 1, 7, 499, 500, 529]:
            shard, local = engine.locate(gid)
            np.testing.assert_array_equal(
                engine.shards[shard].data[local], engine.data[gid]
            )
            assert int(engine._id_maps[shard][local]) == gid

    def test_locate_out_of_range(self, tiny_uniform):
        engine = create_index("sharded", backend="exact", num_shards=2).fit(
            tiny_uniform
        )
        with pytest.raises(IndexError):
            engine.locate(tiny_uniform.shape[0])

    def test_round_robin_keeps_shards_balanced(self, tiny_uniform):
        engine = create_index("sharded", backend="exact", num_shards=4).fit(
            tiny_uniform
        )
        engine.add(tiny_uniform[:10])
        engine.add(tiny_uniform[:3])
        sizes = engine.shard_sizes
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == engine.ntotal

    def test_add_cycles_through_shards(self, tiny_uniform):
        engine = create_index("sharded", backend="exact", num_shards=3).fit(
            tiny_uniform[:9]
        )  # 9 rows stripe evenly: the cursor starts back at shard 0
        ids = engine.add(tiny_uniform[9:16])
        homes = [engine.locate(int(gid))[0] for gid in ids]
        assert homes == [0, 1, 2, 0, 1, 2, 0]

    def test_cursor_persists_across_adds(self, tiny_uniform):
        engine = create_index("sharded", backend="exact", num_shards=3).fit(
            tiny_uniform[:9]
        )
        engine.add(tiny_uniform[9:11])
        ids = engine.add(tiny_uniform[11:14])
        assert [engine.locate(int(gid))[0] for gid in ids] == [2, 0, 1]

    def test_add_continues_the_fit_stripe(self, tiny_uniform):
        """Row i of fit lands on shard i mod S, and add() picks up where
        the stripe stopped: after 10 rows over 4 shards, row 10 belongs
        on shard 10 mod 4 = 2."""
        engine = create_index("sharded", backend="exact", num_shards=4).fit(
            tiny_uniform[:10]
        )  # shards hold 3, 3, 2, 2
        assert engine.shard_sizes == (3, 3, 2, 2)
        ids = engine.add(tiny_uniform[10:12])
        assert [engine.locate(int(gid))[0] for gid in ids] == [2, 3]

    def test_fresh_points_immediately_findable(self, small_clustered):
        engine = create_index(
            "sharded", backend="pm-lsh", num_shards=4, seed=2
        ).fit(small_clustered[:600])
        new_ids = engine.add(small_clustered[600:610])
        hit = engine.query(small_clustered[605], k=1)
        assert int(hit.ids[0]) == int(new_ids[5])
        assert hit.distances[0] == pytest.approx(0.0, abs=1e-9)


class TestStats:
    def test_engine_stats_aggregate(self, small_clustered, queries):
        engine = create_index(
            "sharded", backend="pm-lsh", num_shards=4, seed=1
        ).fit(small_clustered)
        engine.search(queries, k=5)
        engine.search(queries[:8], k=5)
        engine.add(small_clustered[:12])
        stats = engine.stats()
        assert isinstance(stats, MetricsSnapshot)
        assert stats.engine_batches_served == 2
        assert stats.engine_queries_served == queries.shape[0] + 8
        assert stats.engine_points_added == 12
        assert stats.engine_ntotal == engine.ntotal
        assert stats.engine_qps > 0
        assert stats.engine_last_batch_queries == 8
        assert sum(stats[f'engine_shard_ntotal{{shard="{s}"}}'] for s in range(4)) == (
            engine.ntotal
        )

    def test_engine_stats_carry_no_router(self, tiny_uniform):
        """Routing is the fixed round-robin stripe: no stats series or
        table line names a routing policy."""
        engine = create_index("sharded", backend="exact", num_shards=2).fit(
            tiny_uniform
        )
        stats = engine.stats()
        assert not any("router" in key for key in stats)
        assert "router" not in stats.as_table()
        assert "router" not in repr(engine)

    def test_per_shard_stats_surface_repr_and_ntotal(self, small_clustered, queries):
        engine = create_index(
            "sharded", backend="pm-lsh", num_shards=2, seed=1
        ).fit(small_clustered)
        engine.search(queries, k=5)
        stats = engine.stats()
        for s, shard in enumerate(engine.shards):
            ntotal = stats[f'engine_shard_ntotal{{shard="{s}"}}']
            assert ntotal == shard.ntotal
            assert f"ntotal={int(ntotal)}" in repr(shard)
            assert stats[f'engine_shard_search_ms{{shard="{s}"}}'] >= 0.0
        # The backend is a string, so it lives in the repr, not in a series.
        assert "'pm-lsh'" in repr(engine)

    def test_stats_table_lists_one_row_per_shard_series(self, small_clustered, queries):
        engine = create_index("sharded", backend="exact", num_shards=3).fit(
            small_clustered
        )
        engine.search(queries, k=5)
        stats = engine.stats()
        lines = stats.as_table("Engine").splitlines()
        columns = ("search_ms", "candidates", "tree_nodes", "ntotal", "nlive")
        for column in columns:
            for s in range(3):
                key = f'engine_shard_{column}{{shard="{s}"}}'
                assert key in stats
                assert sum(line.split()[0] == key for line in lines) == 1
        assert sum("{shard=" in line for line in lines) == 3 * len(columns)

    def test_batch_stats_carry_engine_fields(self, small_clustered, queries):
        engine = create_index(
            "sharded", backend="exact", num_shards=4, num_workers=2
        ).fit(small_clustered)
        batch = engine.search(queries, k=5)
        assert batch.stats["num_shards"] == 4.0
        assert batch.stats["num_workers"] == 2.0
        assert batch.stats["batch_qps"] > 0
        assert batch.stats["shard_time_ms_max"] >= batch.stats["shard_time_ms_mean"]
        # Per-query candidate counts sum over shards: exact scans everything.
        assert batch.stats["candidates"] == float(engine.ntotal)

    def test_stats_before_fit_raise(self):
        with pytest.raises(RuntimeError):
            ShardedIndex(num_shards=2).stats()


class TestValidationAndLifecycle:
    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedIndex(num_shards=0)
        with pytest.raises(ValueError, match="num_workers"):
            ShardedIndex(num_workers=0)
        with pytest.raises(TypeError, match="backend"):
            ShardedIndex(backend=42)
        with pytest.raises(KeyError, match="unknown index"):
            ShardedIndex(backend="no-such-backend")

    @pytest.mark.parametrize("knob", ["router", "mp_context"])
    def test_removed_knobs_are_not_accepted(self, knob):
        with pytest.raises(TypeError, match=knob):
            ShardedIndex(backend="exact", num_shards=2, **{knob: None})

    def test_fit_requires_one_point_per_shard(self):
        data = np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(ValueError, match="stripe"):
            ShardedIndex(backend="exact", num_shards=4).fit(data)

    def test_rejected_refit_leaves_engine_healthy(self, tiny_uniform):
        engine = create_index("sharded", backend="exact", num_shards=4).fit(
            tiny_uniform
        )
        with pytest.raises(ValueError, match="stripe"):
            engine.fit(tiny_uniform[:2])
        assert engine.is_built
        assert engine.ntotal == tiny_uniform.shape[0]
        result = engine.query(tiny_uniform[5], k=1)
        assert int(result.ids[0]) == 5

    def test_backend_params_reach_every_shard(self, tiny_uniform):
        engine = create_index(
            "sharded",
            backend="lscan",
            num_shards=2,
            backend_params={"portion": 0.4},
            seed=1,
        ).fit(tiny_uniform)
        assert all(shard.portion == 0.4 for shard in engine.shards)

    def test_refit_rebuilds_cleanly(self, tiny_uniform, small_gaussian):
        engine = create_index("sharded", backend="exact", num_shards=2).fit(
            tiny_uniform
        )
        engine.search(tiny_uniform[:3], k=2)
        engine.fit(small_gaussian)
        assert engine.ntotal == small_gaussian.shape[0]
        assert engine.stats().engine_batches_served == 0  # counters reset on refit
        result = engine.query(small_gaussian[3], k=1)
        assert int(result.ids[0]) == 3

    def test_close_is_idempotent_and_recoverable(self, tiny_uniform):
        engine = create_index(
            "sharded", backend="exact", num_shards=2, num_workers=2
        ).fit(tiny_uniform)
        engine.search(tiny_uniform[:2], k=1)
        engine.close()
        engine.close()
        batch = engine.search(tiny_uniform[:2], k=1)  # pool comes back
        assert batch.ids.shape == (2, 1)

    def test_registered_in_factory_and_package(self):
        assert repro.get_index_class("sharded") is ShardedIndex
        assert "sharded" in repro.available_indexes()

    def test_harness_drives_engine_with_no_special_casing(self, tiny_uniform):
        from repro.evaluation import evaluate_algorithm

        result = evaluate_algorithm(
            "sharded",
            tiny_uniform,
            tiny_uniform[:5] + 0.001,
            k=3,
            index_params={"backend": "exact", "num_shards": 4},
        )
        assert result.recall == pytest.approx(1.0)
        assert result.extra["ntotal"] == float(tiny_uniform.shape[0])
        assert "n=200" in result.as_row()
