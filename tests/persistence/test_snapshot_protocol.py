"""The snapshot protocol, proved once for every transport and backend.

``state_arrays()`` / ``from_state_arrays()`` is the one export/restore
pair; the file, shared memory, the raw ``(arrays, state)`` pair and a
``Replica`` polling the file only differ in where the bytes go.  The contract under test: a restored index
answers **byte-identically** — tie order, tombstones, epoch and
``fitted_n`` included — without rebuilding any structure.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import zipfile

import numpy as np
import pytest

import repro
from repro import ExactKNN, PMLSH, PMLSHParams, Replica, SnapshotError, load_index
from repro.core.radius import range_candidate_budget
from repro.parallel import WorkerPool, attach_segment, leaked_segments, publish_arrays
from repro.persistence import (
    FORMAT_VERSION,
    export_state,
    restore_state,
    saved_registry_name,
    snapshot_epoch,
)
from repro.pmtree.tree import PMTree
from repro.queries import Knn, Range

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

BACKENDS = {
    "pm-lsh dense": lambda: PMLSH(params=PMLSHParams(node_capacity=32), seed=11),
    "pm-lsh sampled": lambda: PMLSH(
        params=PMLSHParams(node_capacity=32, hash_family="sampled"), seed=11
    ),
    "exact": ExactKNN,
}


@pytest.fixture(scope="module")
def data(small_gaussian):
    planted = small_gaussian[:400].copy()
    planted[101] = planted[40]  # exact duplicate: exercises distance-0 tie order
    return planted


@pytest.fixture(scope="module")
def queries(data):
    return np.vstack([data[40:41], data[:11] * 1.01])


@pytest.fixture(params=list(BACKENDS))
def index(request, data):
    return BACKENDS[request.param]().fit(data)


@pytest.fixture(params=["file", "shm", "raw", "replica"])
def ship(request, tmp_path):
    """``ship(index) -> restored`` through one transport; the shm
    transport's segments are released — and checked for leaks — afterwards."""
    opened = []

    def through_json(state):
        return json.loads(json.dumps(state))  # state is JSON, by contract

    def ship_file(index):
        path = tmp_path / "index.npz"
        index.save(path)
        return load_index(path)

    def ship_shm(index):
        arrays, state = export_state(index)
        segment = publish_arrays(arrays)
        attachment = attach_segment(segment.handle)
        opened.extend([attachment, segment])
        ship.views = attachment.arrays
        return restore_state(attachment.arrays, through_json(state))

    def ship_raw(index):
        arrays, state = export_state(index)
        return restore_state(arrays, through_json(state))

    def ship_replica(index):
        path = tmp_path / "replica.npz"
        index.save(path)
        replica = Replica()
        assert replica.refresh(path) is True and replica.epoch == index.epoch
        return replica.index

    ship = {"file": ship_file, "shm": ship_shm, "raw": ship_raw, "replica": ship_replica}[
        request.param
    ]
    ship.transport = request.param
    yield ship
    for handle in opened:
        handle.close()
    assert leaked_segments() == ()


def assert_answers_identically(restored, index, queries):
    """kNN + range byte identity (tie order included) and equal lifecycle state."""
    assert type(restored) is type(index)
    assert restored.is_built
    for attr in ("epoch", "ntotal", "nlive", "fitted_n", "num_tombstones"):
        assert getattr(restored, attr) == getattr(index, attr), attr
    np.testing.assert_array_equal(restored.tombstones.ids(), index.tombstones.ids())
    got, want = restored.run(queries, Knn(k=9)), index.run(queries, Knn(k=9))
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)
    got_r, want_r = restored.run(queries, Range(r=5.0)), index.run(queries, Range(r=5.0))
    np.testing.assert_array_equal(got_r.lims, want_r.lims)
    np.testing.assert_array_equal(got_r.ids, want_r.ids)
    np.testing.assert_array_equal(got_r.distances, want_r.distances)
    if "tree_nodes" in want.stats:  # same nodes visited, same work
        assert got.stats["tree_nodes"] == want.stats["tree_nodes"]
        assert got_r.stats["tree_dist_comps"] == want_r.stats["tree_dist_comps"]


class TestRoundTrip:
    """transport ∈ {file, shm, raw, replica} × backend ∈ {pm-lsh dense,
    pm-lsh sampled, exact}."""

    def test_fresh_index(self, ship, index, queries):
        assert_answers_identically(ship(index), index, queries)

    def test_after_deletes(self, ship, index, queries):
        dead = [0, 5, 17, 40]  # 40: one of the planted duplicate pair
        index.delete(dead)
        restored = ship(index)
        assert_answers_identically(restored, index, queries)
        assert not np.isin(restored.run(queries, Knn(k=9)).ids, dead).any()

    def test_after_compact(self, ship, index, data, queries):
        index.delete(np.arange(50))
        index.add(data[:5] + 0.5)
        index.compact()
        restored = ship(index)
        assert restored.num_tombstones == 0
        assert restored.ntotal == data.shape[0] - 50 + 5
        assert_answers_identically(restored, index, queries)

    def test_tail_with_a_tombstoned_tail_row(self, ship, index, data, queries):
        """Rows ``add`` left in PM-LSH's unindexed tail travel as what
        they are: same prefix indexed, same tail, same dead mask."""
        tail_ids = index.add(data[:30] * 0.98)
        index.delete([6, int(tail_ids[0]), int(tail_ids[17])])
        restored = ship(index)
        assert_answers_identically(restored, index, queries)
        assert tail_ids[1] in restored.run(data[1:2] * 0.98, Knn(k=3)).ids
        if isinstance(index, PMLSH):
            flat = restored.flat_tree
            assert (flat.leaf_ids.size, len(flat)) == (data.shape[0], data.shape[0] + 30)
            assert flat.num_live == index.nlive

    def test_restored_index_keeps_growing_or_stays_read_only(
        self, ship, index, data, queries
    ):
        index.delete([3, 4])
        restored = ship(index)
        if ship.transport == "shm":
            # Replicas are read-only: zero-copy, non-writeable segment views.
            assert np.shares_memory(restored.data, ship.views["data"])
            assert not restored.data.flags.writeable
            if isinstance(restored, PMLSH):
                assert np.shares_memory(restored.projected, ship.views["projected"])
                assert not restored.projected.flags.writeable
            return
        extra = data[:20] * 0.99
        np.testing.assert_array_equal(restored.add(extra), index.add(extra))
        assert_answers_identically(restored, index, queries)

    def test_restore_rebuilds_nothing(self, ship, index, queries, monkeypatch):
        """The flat tree travels as arrays: no pointer-tree rebuild and no
        re-flatten on restore, nor when the restored index serves."""
        index.delete([9])
        want = index.run(queries, Knn(k=5))
        monkeypatch.setattr(
            PMTree, "flatten", lambda self: pytest.fail("restore re-flattened the tree")
        )
        monkeypatch.setattr(
            PMTree,
            "build",
            classmethod(lambda cls, *a, **k: pytest.fail("restore rebuilt the tree")),
        )
        restored = ship(index)
        np.testing.assert_array_equal(restored.run(queries, Knn(k=5)).ids, want.ids)
        if isinstance(restored, PMLSH):
            assert restored._tree is None and restored._flat is not None


class TestCompatibility:
    """Both ways with ``c9593d6``, the last commit with per-class save/load,
    and forward from ``ba8c345``, the last commit whose ``add`` inserted."""

    FIXTURE = DATA_DIR / "snapshot_c9593d6_pmlsh.npz"

    def test_archive_of_a_tree_grown_by_inserts_at_ba8c345_answers_identically(self):
        """``fit(150)`` + two ``add`` calls through the M-tree insert and
        split path, deletes among fitted and added rows (one of a planted
        duplicate pair), saved by ``ba8c345`` with the answers it gave.
        The archive carries the three retired parameters and a flat tree
        no bulk build would produce; it loads, and every query type
        answers with the same bytes."""
        restored = load_index(DATA_DIR / "snapshot_ba8c345_pmlsh_grown.npz")
        flat = restored.flat_tree
        assert flat.leaf_ids.size == len(flat) == restored.ntotal == 260  # no tail
        with np.load(DATA_DIR / "snapshot_ba8c345_pmlsh_grown_answers.npz") as want:
            for attr in ("epoch", "nlive", "fitted_n"):
                assert getattr(restored, attr) == int(want[attr]), attr
            queries = want["queries"]
            knn = restored.search(queries, want["knn_ids"].shape[1])
            np.testing.assert_array_equal(knn.ids, want["knn_ids"])
            np.testing.assert_array_equal(knn.distances, want["knn_distances"])
            np.testing.assert_array_equal(
                [s["candidates"] for s in knn.per_query_stats], want["knn_candidates"]
            )
            # The writer sized the default range budget on every row,
            # tombstoned ones included; today's default sizes it on the
            # live rows, so the writer's budget is passed explicitly.
            writer_budget = range_candidate_budget(
                restored.distance_distribution, restored.ntotal,
                restored.solved.beta, restored.params.c * 2.5,
            )
            ranged = restored.run(queries, Range(2.5, budget=writer_budget))
            np.testing.assert_array_equal(ranged.lims, want["range_lims"])
            np.testing.assert_array_equal(ranged.ids, want["range_ids"])
            np.testing.assert_array_equal(ranged.distances, want["range_distances"])
            np.testing.assert_array_equal(
                [s["candidates"] for s in ranged.per_query_stats], want["range_candidates"]
            )
            pairs = restored.closest_pairs(6)
            np.testing.assert_array_equal(pairs.pairs, want["pair_ids"])
            np.testing.assert_array_equal(pairs.distances, want["pair_distances"])
            cover = [restored.ball_cover_query(q, 1.5) for q in queries]
            np.testing.assert_array_equal(
                [-1 if hit is None else hit[0] for hit in cover], want["cover_ids"]
            )
            np.testing.assert_array_equal(
                [np.nan if hit is None else hit[1] for hit in cover], want["cover_distances"]
            )

    def test_archive_written_by_c9593d6_loads_and_answers_identically(self):
        restored = load_index(self.FIXTURE)
        with np.load(DATA_DIR / "snapshot_c9593d6_pmlsh_answers.npz") as want:
            assert restored.epoch == int(want["epoch"])
            assert restored.nlive == int(want["nlive"])
            assert restored.fitted_n == int(want["fitted_n"])
            knn = restored.search(want["queries"], want["knn_ids"].shape[1])
            np.testing.assert_array_equal(knn.ids, want["knn_ids"])
            np.testing.assert_array_equal(knn.distances, want["knn_distances"])
            ranged = restored.range_search(want["queries"], 2.5)
            np.testing.assert_array_equal(ranged.lims, want["range_lims"])
            np.testing.assert_array_equal(ranged.ids, want["range_ids"])
            np.testing.assert_array_equal(ranged.distances, want["range_distances"])

    def test_resaved_archive_is_entry_for_entry_what_c9593d6_wrote(self, tmp_path):
        path = tmp_path / "resaved.npz"
        load_index(self.FIXTURE).save(path)
        with np.load(self.FIXTURE) as old, np.load(path) as new:
            assert set(new.files) == set(old.files)
            assert int(new["format_version"]) == FORMAT_VERSION == 1
            for key in old.files:
                assert new[key].dtype == old[key].dtype, key
                if key == "params_json":  # minus the retired parameters, nothing else
                    was, now = (json.loads(bytes(a[key]).decode("utf-8")) for a in (old, new))
                    assert set(was) - set(now) == {
                        "build_method", "split_promotion", "split_partition"
                    }
                    assert now == {k: was[k] for k in now}
                    continue
                np.testing.assert_array_equal(new[key], old[key], err_msg=key)

    def test_key_sets_per_backend(self, index, tmp_path):
        """Today's names exactly; ``projected`` is re-derived, not stored."""
        path = tmp_path / "keys.npz"
        index.save(path)
        lifecycle = {"registry_name", "format_version", "index_epoch", "fitted_n",
                     "tombstone_ids"}
        with np.load(self.FIXTURE) as old:
            dense = set(old.files)
        expected = {"data"} | lifecycle
        if isinstance(index, PMLSH):
            expected = dense
            if index.params.hash_family == "sampled":
                expected = dense - {"directions"} | {"hash_sample_idx", "hash_weights"}
        with np.load(path) as archive:
            assert set(archive.files) == expected


class TestFileTransport:
    def test_path_is_written_exactly_as_given(self, data, tmp_path):
        """No suffix is appended: what was saved is what loads, for
        ``str`` and ``os.PathLike`` alike."""
        index = ExactKNN().fit(data)
        index.save(str(tmp_path / "snap"))
        index.save(tmp_path / "snap.v2")
        assert sorted(os.listdir(tmp_path)) == ["snap", "snap.v2"]
        assert load_index(str(tmp_path / "snap")).ntotal == index.ntotal
        assert load_index(tmp_path / "snap.v2").ntotal == index.ntotal
        assert saved_registry_name(tmp_path / "snap") == "exact"

    def test_failed_write_leaves_previous_archive_intact(
        self, data, queries, tmp_path, monkeypatch
    ):
        path = tmp_path / "index.npz"
        index = PMLSH(seed=2).fit(data)
        index.save(path)
        want = index.search(queries, 5)
        real = np.savez_compressed

        def fail_after_first_array(handle, **entries):
            first = next(iter(entries))
            real(handle, **{first: entries[first]})
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", fail_after_first_array)
        index.delete([0, 1])
        with pytest.raises(OSError, match="disk full"):
            index.save(path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["index.npz"]  # no stray temp file
        previous = load_index(path)
        assert previous.num_tombstones == 0
        got = previous.search(queries, 5)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)

    def test_load_checks_the_class(self, data, tmp_path):
        path = tmp_path / "exact.npz"
        ExactKNN().fit(data).save(path)
        assert isinstance(ExactKNN.load(path), ExactKNN)
        with pytest.raises(SnapshotError, match="ExactKNN"):
            PMLSH.load(path)


def _entries(path):
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _garbage(path):
    path.write_bytes(b"definitely not a zip archive" * 8)


def _empty(path):
    path.write_bytes(b"")


def _nameless(path):
    entries = _entries(path)
    del entries["registry_name"]
    np.savez_compressed(path, **entries)


def _newer(path):
    entries = _entries(path)
    entries["format_version"] = np.asarray(FORMAT_VERSION + 1, dtype=np.int64)
    np.savez_compressed(path, **entries)


def _flip_byte_in_data(path):
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("data.npy")
    blob = bytearray(path.read_bytes())
    start = info.header_offset
    name_and_extra = sum(
        int.from_bytes(blob[start + at : start + at + 2], "little") for at in (26, 28)
    )
    # past the 30-byte local header, into the middle of the compressed payload
    blob[start + 30 + name_and_extra + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _drop_pivots(path):
    entries = _entries(path)
    del entries["pivots"]
    np.savez_compressed(path, **entries)


class TestBadArchives:
    """Every reader fails typed: ``SnapshotError`` naming path and cause."""

    @pytest.fixture()
    def path(self, data, tmp_path):
        path = tmp_path / "index.npz"
        PMLSH(seed=2).fit(data).save(path)
        return path

    @pytest.mark.parametrize(
        "damage, cause",
        [
            (_truncate, "cannot load snapshot"),
            (_garbage, "cannot load snapshot"),
            (_empty, "cannot load snapshot"),
            (_nameless, "registry_name"),
            (_newer, "newer than this library"),
        ],
    )
    @pytest.mark.parametrize(
        "reader", [load_index, snapshot_epoch, saved_registry_name, PMLSH.load]
    )
    def test_visible_in_the_header(self, path, damage, cause, reader):
        damage(path)
        with pytest.raises(SnapshotError, match=cause) as caught:
            reader(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "damage, cause", [(_flip_byte_in_data, "cannot load"), (_drop_pivots, "array 'pivots'")]
    )
    @pytest.mark.parametrize("reader", [load_index, PMLSH.load])
    def test_visible_on_restore(self, path, damage, cause, reader):
        """A bad entry the header peek never reads surfaces on the load
        (zip's own CRC catches the flipped byte — no second checksum)."""
        damage(path)
        assert snapshot_epoch(path) == 1  # the cheap peek reads the stamp only
        with pytest.raises(SnapshotError, match=cause) as caught:
            reader(path)
        assert str(path) in str(caught.value)

    def test_missing_file_is_not_a_snapshot_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nope.npz")

    def test_replica_keeps_serving_across_a_bad_archive(self, data, tmp_path):
        class Server:
            index = None

            def swap_index(self, index):
                self.index = index

        path = tmp_path / "index.npz"
        primary = ExactKNN().fit(data)
        primary.save(path)
        server = Server()
        replica = Replica(server=server)
        assert replica.refresh(path) is True
        before = (replica.index, replica.epoch, replica.refreshes, server.index)
        for damage in (_truncate, _garbage, _newer):
            primary.save(path)
            damage(path)
            with pytest.raises(SnapshotError):
                replica.refresh(path)
            after = (replica.index, replica.epoch, replica.refreshes, server.index)
            assert all(a is b or a == b for a, b in zip(after, before))
        primary.delete([7])
        primary.save(path)  # a good, newer archive at the same path
        assert replica.refresh(path) is True
        assert replica.refreshes == 2 and replica.epoch == primary.epoch
        assert server.index is replica.index and server.index.num_tombstones == 1


class TestUnsupportedBackends:
    def test_whole_registry_saves_or_fails_typed_and_early(self, data, tmp_path):
        """Every index has ``save()``: pm-lsh and exact round-trip, the
        rest raise one ``NotImplementedError`` — and a process engine
        over them raises it at construction, before any worker exists."""
        path = tmp_path / "index.npz"
        for name in repro.available_indexes():
            cls = repro.get_index_class(name)
            try:
                index = repro.create_index(name, seed=3)
            except TypeError:  # parameter-free constructors (the exact oracle)
                index = repro.create_index(name)
            index.fit(data[:120])
            try:
                if cls.state_arrays is not repro.ANNIndex.state_arrays:
                    index.delete([1, 2])
                    index.save(path)
                    restored = load_index(path)
                    assert restored.num_tombstones == 2, name
                    assert restored.epoch == index.epoch, name
                    path.unlink()
                    repro.create_index(
                        "sharded", backend=name, pool_backend="process"
                    ).close()
                    continue
                match = f"{cls.__name__} does not implement.*pm-lsh and exact"
                with pytest.raises(NotImplementedError, match=match):
                    index.save(path)
                with pytest.raises(NotImplementedError, match=match):
                    repro.create_index("sharded", backend=name, pool_backend="process")
                assert not path.exists()
            finally:
                getattr(index, "close", lambda: None)()
        assert multiprocessing.active_children() == []
        assert leaked_segments() == ()

    def test_publish_of_unsupported_backend_starts_no_worker(self, data):
        pool = WorkerPool(2)
        try:
            with pytest.raises(NotImplementedError, match="QALSH"):
                pool.publish(0, repro.create_index("qalsh", seed=0).fit(data[:120]))
            assert not pool.running
            assert multiprocessing.active_children() == []
        finally:
            pool.close()

    def test_worker_side_restore_failure_leaks_nothing(self, data, monkeypatch):
        """The worker unmaps the segment it could not restore from, the
        parent unlinks it, and the pool keeps serving."""
        index = ExactKNN().fit(data)
        pool = WorkerPool(1)
        if pool.start_method != "fork":
            pytest.skip("the failure is injected by forking a patched class")
        with monkeypatch.context() as patched:
            patched.setattr(
                ExactKNN,
                "from_state_arrays",
                classmethod(lambda cls, arrays, params: arrays["no-such-array"]),
            )
            pool.start()  # workers fork with the broken restore
        try:
            with pytest.raises(RuntimeError, match="missing required array"):
                pool.publish(0, index)
            assert leaked_segments() == ()
            assert pool.ping() == [0]
        finally:
            pool.close()
        assert leaked_segments() == ()
