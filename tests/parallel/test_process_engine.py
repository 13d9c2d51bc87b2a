"""Process-backend engine tests: the exact oracle, tombstones across the
pipe, dead-worker recovery, clean teardown (no
leaked shared-memory segments) and diagnostics.  Byte-identity with the
serial and thread carriers, fresh and after writes or a refit, is
``tests/engine/test_carriers.py``."""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np
import pytest

from repro import create_index
from repro.parallel.shm import leaked_segments


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(500, 20))
    data[101] = data[40]  # planted duplicate: exercises distance-0 tie order
    return data


@pytest.fixture()
def queries(dataset):
    rng = np.random.default_rng(32)
    return dataset[:10] + rng.normal(size=(10, dataset.shape[1])) * 0.02


def _build(dataset, *, pool_backend, backend="pm-lsh", **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("num_workers", 2)
    engine = create_index(
        "sharded", backend=backend, pool_backend=pool_backend, seed=5, **kwargs
    )
    return engine.fit(dataset)


def _assert_knn_equal(a, b, queries, k=8):
    ra, rb = a.search(queries, k), b.search(queries, k)
    np.testing.assert_array_equal(ra.ids, rb.ids)
    np.testing.assert_array_equal(ra.distances, rb.distances)


def _assert_range_equal(a, b, queries, radius=5.0):
    ra, rb = a.range_search(queries, radius), b.range_search(queries, radius)
    np.testing.assert_array_equal(ra.lims, rb.lims)
    np.testing.assert_array_equal(ra.ids, rb.ids)
    np.testing.assert_array_equal(ra.distances, rb.distances)


def _assert_cp_equal(a, b, m=10):
    ra, rb = a.closest_pairs(m), b.closest_pairs(m)
    np.testing.assert_array_equal(ra.pairs, rb.pairs)
    np.testing.assert_array_equal(ra.distances, rb.distances)


class TestByteIdentity:
    def test_exact_backend_matches_single_index(self, dataset, queries):
        """The strongest oracle: process-sharded exact == one exact index."""
        single = create_index("exact").fit(dataset)
        process = _build(dataset, pool_backend="process", backend="exact")
        try:
            _assert_knn_equal(single, process, queries)
            _assert_range_equal(single, process, queries)
            _assert_cp_equal(single, process)
        finally:
            process.close()


class TestLifecycle:
    def test_deleted_ids_never_returned(self, dataset, queries):
        process = _build(dataset, pool_backend="process")
        try:
            process.delete([0, 1, 2, 3])
            result = process.search(queries, 6)
            assert not np.isin(result.ids, [0, 1, 2, 3]).any()
        finally:
            process.close()


class TestRecovery:
    def test_worker_killed_between_rounds_is_respawned(self, dataset, queries):
        thread = _build(dataset, pool_backend="thread")
        process = _build(dataset, pool_backend="process")
        try:
            process.search(queries, 8)
            victim = process.worker_pool._workers[0][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            _assert_knn_equal(thread, process, queries)
            _assert_range_equal(thread, process, queries)
            labels = process._obs_labels
            assert process.metrics.value("pool_worker_restarts", labels) == 1.0
            assert process.metrics.value("pool_workers", labels) == 2.0
            assert process.worker_pool.ping() == [0, 1]
        finally:
            process.close()
            thread.close()
        assert leaked_segments() == ()

    def test_worker_killed_before_a_republish_is_respawned(self, dataset, queries):
        """The dead pipe is met by ``attach``, not ``run``: the new worker
        gets the shards it owned, then the snapshot being published."""
        thread = _build(dataset, pool_backend="thread")
        process = _build(dataset, pool_backend="process")
        try:
            process.search(queries, 8)
            victim = process.worker_pool._workers[1][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            for engine in (thread, process):
                engine.delete([1, 4, 10])
            _assert_knn_equal(thread, process, queries)
            labels = process._obs_labels
            assert process.metrics.value("pool_worker_restarts", labels) == 1.0
        finally:
            process.close()
            thread.close()
        assert leaked_segments() == ()


class TestTeardown:
    def test_close_is_idempotent(self, dataset):
        process = _build(dataset, pool_backend="process")
        process.search(dataset[:3], 2)
        process.close()
        process.close()
        assert leaked_segments() == ()

    def test_del_terminates_pool(self, dataset):
        process = _build(dataset, pool_backend="process")
        process.search(dataset[:3], 2)
        process.__del__()
        assert leaked_segments() == ()

    def test_close_with_in_flight_server_batches(self, dataset, queries):
        """Drain an async server over the process backend, then shut
        everything down: no hangs, no leaked segments."""
        from repro.serving import AsyncSearchServer

        process = _build(dataset, pool_backend="process")

        async def drive():
            async with AsyncSearchServer(process, max_batch=4) as server:
                return await asyncio.gather(
                    *[server.submit(queries[i], 5) for i in range(len(queries))]
                )

        try:
            results = asyncio.run(drive())
            reference = process.search(queries, 5)
            for i, result in enumerate(results):
                np.testing.assert_array_equal(result.ids, reference.ids[i])
        finally:
            process.close()
        assert leaked_segments() == ()


class TestDiagnostics:
    def test_stats_report_pool_backend(self, dataset):
        process = _build(dataset, pool_backend="process")
        thread = _build(dataset, pool_backend="thread")
        try:
            assert process.stats().engine_process_pool == 1.0
            assert "engine_process_pool" in process.stats().as_table()
            assert thread.stats().engine_process_pool == 0.0
            assert "process" in repr(process)
        finally:
            process.close()
            thread.close()

    def test_pool_metrics_flow_into_engine_registry(self, dataset, queries):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        process = _build(dataset, pool_backend="process")
        process.metrics = registry
        try:
            process.search(queries, 4)
            labels = process._obs_labels
            assert registry.value("pool_publishes", labels) >= 3.0
            assert registry.value("pool_ipc_roundtrips", labels) > 0.0
            assert registry.value("pool_workers", labels) == 2.0
        finally:
            process.close()

    def test_invalid_pool_backend_rejected(self, dataset):
        with pytest.raises(ValueError, match="pool_backend"):
            create_index("sharded", pool_backend="fiber", num_shards=2)

    def test_start_pool_requires_process_backend(self, dataset):
        thread = _build(dataset, pool_backend="thread")
        try:
            with pytest.raises(RuntimeError):
                thread.start_pool()
        finally:
            thread.close()

    def test_start_pool_warms_up_workers(self, dataset, queries):
        process = _build(dataset, pool_backend="process")
        try:
            process.start_pool()
            assert process.worker_pool is not None
            _assert_knn_equal(
                process, _build(dataset, pool_backend="thread", num_workers=1), queries
            )
        finally:
            process.close()
        assert leaked_segments() == ()
