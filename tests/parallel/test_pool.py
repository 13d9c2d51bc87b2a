"""Worker-pool tests: lifecycle, IPC, and failure handling."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.parallel import WorkerPool, leaked_segments
from repro.parallel.pool import default_start_method
from repro.queries import Knn


@pytest.fixture()
def data():
    return np.random.default_rng(21).normal(size=(240, 12))


@pytest.fixture()
def pool():
    built = WorkerPool(2).start()
    yield built
    built.close()
    assert leaked_segments() == ()


class TestLifecycle:
    def test_ping_reaches_every_worker(self, pool):
        assert pool.ping() == list(range(pool.num_workers))

    def test_double_close_is_idempotent(self, data):
        pool = WorkerPool(2).start()
        index = repro.create_index("exact").fit(data)
        pool.publish(0, index)
        pool.close()
        pool.close()
        assert leaked_segments() == ()

    def test_start_is_idempotent(self, pool):
        assert pool.start() is pool
        assert pool.ping() == list(range(pool.num_workers))

    def test_cannot_restart_after_close(self, data):
        pool = WorkerPool(1).start()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.start()

    def test_terminate_never_raises(self, data):
        pool = WorkerPool(2).start()
        index = repro.create_index("exact").fit(data)
        pool.publish(1, index)
        pool.terminate()
        pool.terminate()
        assert leaked_segments() == ()


    def test_start_method_is_the_platform_default(self):
        pool = WorkerPool(1)
        assert pool.start_method == default_start_method()
        with pytest.raises(TypeError, match="mp_context"):
            WorkerPool(1, mp_context="spawn")


class TestQueries:
    def test_knn_matches_local_index(self, pool, data):
        index = repro.create_index("exact").fit(data)
        pool.publish(0, index)
        queries = data[:5] * 1.01
        outcome = pool.run("knn", {"queries": queries, "spec": Knn(k=6)})
        assert set(outcome) == {0}
        result, elapsed_ms = outcome[0]
        expected = index.run(queries, Knn(k=6))
        np.testing.assert_array_equal(result.ids, expected.ids)
        np.testing.assert_array_equal(result.distances, expected.distances)
        assert elapsed_ms >= 0.0

    def test_shards_land_on_owning_workers(self, pool, data):
        for shard_id in range(4):
            index = repro.create_index("exact").fit(data[shard_id::4])
            pool.publish(shard_id, index)
            assert pool.owner(shard_id) == shard_id % pool.num_workers
        outcome = pool.run("knn", {"queries": data[:3], "spec": Knn(k=2)})
        assert set(outcome) == {0, 1, 2, 3}

    def test_republish_replaces_snapshot(self, pool, data):
        index = repro.create_index("exact").fit(data)
        pool.publish(0, index)
        index.delete([0, 1, 2])
        pool.publish(0, index)
        outcome = pool.run("knn", {"queries": data[:4], "spec": Knn(k=3)})
        result, _ = outcome[0]
        assert not np.isin(result.ids, [0, 1, 2]).any()

    def test_worker_error_surfaces_with_traceback(self, pool, data):
        index = repro.create_index("exact").fit(data)
        pool.publish(0, index)
        bad_dim = np.zeros((2, data.shape[1] + 3))
        with pytest.raises(RuntimeError, match="worker"):
            pool.run("knn", {"queries": bad_dim, "spec": Knn(k=3)})
        # The worker survives the error and keeps serving.
        outcome = pool.run("knn", {"queries": data[:2], "spec": Knn(k=3)})
        assert 0 in outcome

    def test_unknown_job_kind_raises(self, pool, data):
        index = repro.create_index("exact").fit(data)
        pool.publish(0, index)
        with pytest.raises(RuntimeError, match="unknown job kind"):
            pool.run("no-such-kind", {})


class TestCarrierContract:
    """``run(kind, payload, shards)``: the pool keeps its replicas in step
    with the shard objects it is handed, keyed on object + epoch."""

    def test_run_with_shards_publishes_only_what_is_stale(self, pool, data):
        shards = [repro.create_index("exact").fit(data[s::3]) for s in range(3)]
        payload = {"queries": data[:4], "spec": Knn(k=3)}
        before = pool._c_publishes.value  # the default registry is shared
        publishes = lambda: pool._c_publishes.value - before  # noqa: E731
        assert set(pool.run("knn", payload, shards)) == {0, 1, 2}
        assert publishes() == 3.0
        pool.run("knn", payload, shards)
        assert publishes() == 3.0  # same objects, same epochs: nothing to do
        shards[1].delete([0])
        outcome = pool.run("knn", payload, shards)
        assert publishes() == 4.0  # the bumped epoch
        assert not np.isin(outcome[1][0].ids, [0]).any()
        # A refit builds a new object whose epoch number may match the old one.
        shards[2] = repro.create_index("exact").fit(data[2::3][:40])
        outcome = pool.run("knn", payload, shards)
        assert publishes() == 5.0
        assert outcome[2][0].ids.max() < 40

    def test_local_pool_speaks_the_same_contract(self, pool, data):
        from repro.parallel.pool import LocalPool

        shards = [repro.create_index("exact").fit(data[s::2]) for s in range(2)]
        payload = {"queries": data[:4], "spec": Knn(k=3)}
        remote = pool.run("knn", payload, shards)
        for width in (1, 2):
            local = LocalPool(width)
            try:
                got = local.run("knn", payload, shards)
            finally:
                local.close()
            assert list(got) == [0, 1]
            for shard_id, (result, elapsed_ms) in got.items():
                assert result.ids.tobytes() == remote[shard_id][0].ids.tobytes()
                assert elapsed_ms >= 0.0
        with pytest.raises(ValueError, match="unknown job kind"):
            LocalPool(1).run("no-such-kind", {}, shards)

    def test_local_pool_threads_start_on_distinct_cpus_unpinned(self, data, monkeypatch):
        """Thread i is moved to the i-th allowed CPU once, then handed the
        full mask back: placement, not a pin."""
        import os
        import threading

        from repro.parallel import pool as pool_module

        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        allowed = os.sched_getaffinity(0)
        masks = []
        real = os.sched_setaffinity

        def recording(pid, mask):
            masks.append((threading.get_ident(), set(mask)))
            real(pid, mask)

        monkeypatch.setattr(pool_module.os, "sched_setaffinity", recording)
        shards = [repro.create_index("exact").fit(data[s::2]) for s in range(2)]
        local = pool_module.LocalPool(2)
        try:
            for _ in range(3):
                local.run("knn", {"queries": data[:4], "spec": Knn(k=3)}, shards)
            threads = [t for t in threading.enumerate() if t.name.startswith("repro-shard")]
            for thread in threads:
                assert os.sched_getaffinity(thread.native_id) == allowed
        finally:
            local.close()
        cpus = sorted(allowed)
        placed = [mask for _, mask in masks[0::2]]
        assert placed == [{cpus[i % len(cpus)]} for i in range(len(placed))]
        assert [mask for _, mask in masks[1::2]] == [allowed] * len(placed)
        assert 1 <= len({ident for ident, _ in masks}) == len(placed) <= 2


class TestRecovery:
    def test_second_failure_raises_and_the_pool_starts_over(self, data, monkeypatch):
        """A worker that dies again right after its respawn is not retried
        twice; what is left cannot be trusted to be in step, so the pool
        drops to idle and the next synced round rebuilds it."""
        import os
        import signal

        from repro.parallel import pool as pool_module

        from repro.obs import MetricsRegistry

        pool = WorkerPool(2, registry=MetricsRegistry())
        if pool.start_method != "fork":
            pytest.skip("the failure is injected by forking a patched worker loop")
        shards = [repro.create_index("exact").fit(data[s::2]) for s in range(2)]
        payload = {"queries": data[:4], "spec": Knn(k=3)}
        try:
            want = pool.run("knn", payload, shards)
            victim = pool._workers[0][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            with monkeypatch.context() as patched:
                patched.setattr(pool_module, "worker_main", lambda *_: os._exit(3))
                with pytest.raises(RuntimeError, match="died mid-request"):
                    pool.run("knn", payload, shards)
            assert not pool.running
            assert leaked_segments() == ()
            with pytest.raises(RuntimeError, match="not running"):
                pool.run("knn", payload)
            got = pool.run("knn", payload, shards)
            assert pool.ping() == [0, 1]
            for shard_id in (0, 1):
                assert got[shard_id][0].ids.tobytes() == want[shard_id][0].ids.tobytes()
            assert pool._c_restarts.value == 1.0
        finally:
            pool.close()
        assert leaked_segments() == ()


class TestMetrics:
    def test_counters_accumulate(self, data):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        pool = WorkerPool(2, registry=registry, labels={"pool": "p0"}).start()
        try:
            index = repro.create_index("exact").fit(data)
            pool.publish(0, index)
            pool.run("knn", {"queries": data[:2], "spec": Knn(k=2)})
            labels = {"pool": "p0"}
            assert registry.value("pool_publishes", labels) == 1.0
            assert registry.value("pool_ipc_roundtrips", labels) >= 2.0
            assert registry.value("pool_bytes_published", labels) > 0.0
            assert registry.value("pool_workers", labels) == 2.0
        finally:
            pool.close()
        assert leaked_segments() == ()
