"""Lifecycle operations through the async serving front-end: deletes,
background compaction under live traffic, index hot-swaps, replicas."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

import repro
from repro import CompactionPolicy, Knn, Replica
from repro.serving import AsyncSearchServer


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:400]


def run(coro):
    return asyncio.run(coro)


class TestServerDelete:
    def test_delete_filters_and_counts(self, data):
        async def scenario():
            index = repro.create_index("pm-lsh", seed=3).fit(data)
            async with AsyncSearchServer(index, max_batch=8, max_delay_ms=0.5) as server:
                dead = np.arange(0, 120)
                out = await server.delete(dead)
                assert out.size == 120
                results = await server.submit_many(data[:16] + 0.01, Knn(k=5))
                ids = np.concatenate([r.ids for r in results])
                assert not np.isin(ids, dead).any()
                stats = server.stats()
                assert stats.points_deleted == 120
                assert stats.serving_epoch >= 1
            return True

        assert run(scenario())

    def test_non_integer_ids_rejected(self, data):
        async def scenario():
            index = repro.create_index("exact").fit(data)
            async with AsyncSearchServer(index, max_batch=4) as server:
                with pytest.raises(ValueError, match="integers"):
                    await server.delete(np.array([2.7]))
                assert index.num_tombstones == 0
                assert server.stats().points_deleted == 0
                result = await server.submit(data[2], Knn(k=1))
                assert result.ids[0] == 2
            return True

        assert run(scenario())

    def test_delete_invalidates_cache(self, data):
        async def scenario():
            index = repro.create_index("exact").fit(data)
            async with AsyncSearchServer(
                index, max_batch=4, max_delay_ms=0.2, cache=64
            ) as server:
                q = data[50] + 0.01
                first = await server.submit(q, Knn(k=1))
                assert first.ids[0] == 50
                await server.delete([50])
                second = await server.submit(q, Knn(k=1))
                assert second.ids[0] != 50  # no stale cached answer
            return True

        assert run(scenario())


class TestServerCompaction:
    def test_compact_under_live_traffic(self, data):
        """Queries keep flowing during the background rebuild, none ever
        sees a dead id, and the swap lands atomically."""

        async def scenario():
            index = repro.create_index("pm-lsh", seed=3).fit(data)
            async with AsyncSearchServer(index, max_batch=8, max_delay_ms=0.5) as server:
                dead = np.arange(0, 120)
                await server.delete(dead)
                old = server.index

                async def traffic():
                    collected = []
                    for _ in range(8):
                        collected.extend(
                            await server.submit_many(data[200:206] + 0.01, Knn(k=5))
                        )
                        await asyncio.sleep(0)
                    return collected

                task = asyncio.create_task(traffic())
                result = await server.compact(
                    CompactionPolicy(max_tombstone_ratio=0.25)
                )
                answers = await task
                assert result is not None and result.removed == 120
                assert server.index is not old
                assert server.index.ntotal == 280
                assert server.index.num_tombstones == 0
                ids = np.concatenate([r.ids for r in answers])
                assert (ids >= 0).all()
                # pre-swap answers carry old global ids, post-swap dense ids;
                # either way no tombstoned id from the old numbering survives
                # the swap inside the *served index*
                fresh = await server.submit_many(data[200:206] + 0.01, Knn(k=5))
                assert all((r.ids < 280).all() for r in fresh)
                stats = server.stats()
                assert stats.compactions == 1
                assert stats.index_swaps == 1
            return True

        assert run(scenario())

    def test_policy_refusal_is_a_noop(self, data):
        async def scenario():
            index = repro.create_index("exact").fit(data)
            async with AsyncSearchServer(index) as server:
                await server.delete([0])
                verdict = await server.compact(
                    CompactionPolicy(max_tombstone_ratio=0.9, max_growth_ratio=None)
                )
                assert verdict is None
                assert server.index is index
                assert server.stats().compactions == 0
            return True

        assert run(scenario())

    def test_writes_rejected_while_compacting(self, data, monkeypatch):
        """A write arriving mid-rebuild must fail loudly, not corrupt the
        snapshot the rebuild works from."""
        import repro.lifecycle.compaction as compaction_mod

        release = threading.Event()
        real = compaction_mod.compact_index

        def slow_compact(index):
            release.wait(timeout=10.0)
            return real(index)

        monkeypatch.setattr(compaction_mod, "compact_index", slow_compact)

        async def scenario():
            index = repro.create_index("exact").fit(data)
            async with AsyncSearchServer(index) as server:
                await server.delete(np.arange(150))
                compaction = asyncio.create_task(server.compact())
                await asyncio.sleep(0.05)  # let the rebuild start and block
                with pytest.raises(RuntimeError, match="compaction is in"):
                    await server.add(data[:2])
                with pytest.raises(RuntimeError, match="compaction is in"):
                    await server.delete([200])
                # reads stay open the whole time
                answer = await server.submit(data[300] + 0.01, Knn(k=3))
                assert len(answer) == 3
                release.set()
                result = await compaction
                assert result.removed == 150
                # writes work again after the swap
                ids = await server.add(data[:2])
                assert ids.size == 2
            return True

        assert run(scenario())


class TestSwapAndReplica:
    def test_swap_index_counts_and_serves_new_index(self, data):
        async def scenario():
            first = repro.create_index("exact").fit(data[:100])
            second = repro.create_index("exact").fit(data)
            async with AsyncSearchServer(first) as server:
                server.swap_index(second)
                assert server.index is second
                answer = await server.submit(data[350] + 0.001, Knn(k=1))
                assert answer.ids[0] == 350  # only findable in the new index
                assert server.stats().index_swaps == 1
            return True

        assert run(scenario())

    def test_replica_refresh_swaps_server_index(self, data, tmp_path):
        snap = str(tmp_path / "snap.npz")

        async def scenario():
            primary = repro.create_index("pm-lsh", seed=3).fit(data)
            primary.delete(np.arange(100))
            primary.compact()
            primary.save(snap)
            stale = repro.create_index("exact").fit(data[:50])
            async with AsyncSearchServer(stale) as server:
                replica = Replica(server=server)
                assert replica.refresh(snap) is True
                assert server.index.ntotal == 300
                assert server.stats().index_swaps == 1
                # re-reading the same snapshot must not churn the server
                assert replica.refresh(snap) is False
                assert server.stats().index_swaps == 1
            return True

        assert run(scenario())
