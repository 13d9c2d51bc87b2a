"""Replica snapshots: epoch stamping, format versioning, and the Replica
hot-swap loop.  Round trips (tombstones and epoch included) are proved
per transport and backend in ``tests/persistence/test_snapshot_protocol.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExactKNN, Replica, load_index, snapshot_epoch
from repro.persistence import FORMAT_VERSION


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:250]


@pytest.fixture()
def snap(tmp_path):
    return str(tmp_path / "index.npz")


class TestEpochStamp:
    def test_epoch_stamp_readable_without_loading(self, data, snap):
        index = ExactKNN().fit(data)
        index.delete([0])
        index.add(data[:2])
        index.save(snap)
        assert snapshot_epoch(snap) == index.epoch
        assert index.epoch == 3  # fit + delete + add

class TestFormatVersioning:
    def test_newer_version_rejected_with_clear_error(self, data, snap):
        ExactKNN().fit(data).save(snap)
        with np.load(snap) as archive:
            entries = {key: archive[key] for key in archive.files}
        entries["format_version"] = np.asarray(FORMAT_VERSION + 98, dtype=np.int64)
        np.savez_compressed(snap, **entries)
        with pytest.raises(ValueError, match="newer than this library"):
            load_index(snap)

    def test_legacy_unstamped_archive_loads(self, data, snap):
        # strip every lifecycle key: the shape of a pre-lifecycle archive
        ExactKNN().fit(data).save(snap)
        with np.load(snap) as archive:
            entries = {
                key: archive[key]
                for key in archive.files
                if key
                not in {"format_version", "index_epoch", "tombstone_ids", "fitted_n"}
            }
        np.savez_compressed(snap, **entries)
        restored = load_index(snap)
        assert restored.epoch in (0, 1)  # legacy default epoch, fit bumps once
        assert restored.num_tombstones == 0
        assert snapshot_epoch(snap) == 0
        queries = data[:4] + 0.01
        np.testing.assert_array_equal(
            restored.search(queries, k=5).ids,
            ExactKNN().fit(data).search(queries, k=5).ids,
        )

    def test_current_version_stamped(self, data, snap):
        ExactKNN().fit(data).save(snap)
        with np.load(snap) as archive:
            assert int(archive["format_version"]) == FORMAT_VERSION


class TestReplica:
    def test_refresh_loads_then_noops(self, data, snap):
        index = ExactKNN().fit(data)
        index.save(snap)
        replica = Replica()
        assert replica.refresh(snap) is True
        assert replica.index is not None
        assert replica.epoch == index.epoch
        assert replica.refreshes == 1
        # same snapshot again: monotonic no-op
        assert replica.refresh(snap) is False
        assert replica.refreshes == 1

    def test_refresh_follows_epoch_advances(self, data, snap):
        index = ExactKNN().fit(data)
        index.save(snap)
        replica = Replica()
        replica.refresh(snap)
        first_epoch = replica.epoch
        index.delete([5, 6])
        index.compact()
        index.save(snap)
        assert replica.refresh(snap) is True
        assert replica.epoch > first_epoch
        assert replica.index.ntotal == data.shape[0] - 2
        assert replica.refreshes == 2

    def test_stale_snapshot_ignored(self, data, tmp_path):
        old_path = str(tmp_path / "old.npz")
        new_path = str(tmp_path / "new.npz")
        index = ExactKNN().fit(data)
        index.save(old_path)
        index.delete([0])
        index.save(new_path)
        replica = Replica()
        replica.refresh(new_path)
        assert replica.refresh(old_path) is False  # older epoch: refused
        assert replica.index.num_tombstones == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Replica().refresh(str(tmp_path / "nope.npz"))
