"""Unit tests of the TombstoneSet primitive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lifecycle import TombstoneSet


class TestTombstoneSet:
    def test_empty_is_falsy(self):
        dead = TombstoneSet()
        assert len(dead) == 0
        assert not dead
        assert dead.ids().size == 0
        assert dead.ids().dtype == np.int64

    def test_mark_sorts_and_dedupes(self):
        dead = TombstoneSet()
        dead.mark([5, 1, 5, 3])
        assert dead.ids().tolist() == [1, 3, 5]
        dead.mark([2, 5])
        assert dead.ids().tolist() == [1, 2, 3, 5]
        assert len(dead) == 4
        assert dead

    def test_construct_from_ids(self):
        dead = TombstoneSet([4, 4, 0])
        assert dead.ids().tolist() == [0, 4]

    def test_membership(self):
        dead = TombstoneSet([1, 3])
        assert 1 in dead and 3 in dead
        assert 0 not in dead and 2 not in dead
        mask = dead.contains(np.array([0, 1, 2, 3]))
        assert mask.tolist() == [False, True, False, True]
        assert dead.as_set() == {1, 3}

    def test_alive_mask_and_live_ids(self):
        dead = TombstoneSet([0, 2])
        assert dead.alive_mask(5).tolist() == [False, True, False, True, True]
        assert dead.live_ids(5).tolist() == [1, 3, 4]
        # empty set: everything alive
        assert TombstoneSet().alive_mask(3).all()
        assert TombstoneSet().live_ids(3).tolist() == [0, 1, 2]

    def test_copy_is_independent(self):
        dead = TombstoneSet([1])
        other = dead.copy()
        other.mark([2])
        assert len(dead) == 1
        assert len(other) == 2


class TestDeleteValidation:
    @pytest.fixture()
    def index(self, tiny_uniform):
        import repro

        return repro.create_index("exact").fit(tiny_uniform)

    def test_delete_requires_built(self):
        import repro

        with pytest.raises(RuntimeError):
            repro.create_index("exact").delete([0])

    def test_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="delete ids must be in"):
            index.delete([index.ntotal])
        with pytest.raises(ValueError, match="delete ids must be in"):
            index.delete([-1])

    @pytest.mark.parametrize(
        "name",
        ["c2lsh", "e2lsh", "exact", "lsb-forest", "lscan", "multi-probe",
         "pm-lsh", "qalsh", "r-lsh", "sharded", "srs"],
    )
    def test_non_integer_ids_rejected(self, name, tiny_uniform):
        """A float id is refused, not truncated (2.7 once deleted id 2)."""
        import repro

        index = repro.create_index(name).fit(tiny_uniform)
        try:
            for ids in (np.array([2.7]), [2.0], np.array([True])):
                with pytest.raises(ValueError, match="integers"):
                    index.delete(ids)
            assert index.num_tombstones == 0
            assert index.delete(np.array([2], dtype=np.uint8)).tolist() == [2]
            assert index.delete([]).size == 0
        finally:
            getattr(index, "close", lambda: None)()

    def test_double_delete_rejected(self, index):
        index.delete([3, 4])
        with pytest.raises(ValueError, match="already deleted"):
            index.delete([4, 5])
        # the failed call must not have partially applied
        assert index.num_tombstones == 2

    def test_counters_and_epoch(self, index):
        before_epoch = index.epoch
        out = index.delete([10, 7, 7])
        assert out.tolist() == [7, 10]
        assert index.ntotal == 200
        assert index.nlive == 198
        assert index.num_tombstones == 2
        assert index.epoch == before_epoch + 1

    def test_k_bounded_by_nlive(self, index):
        index.delete(np.arange(150))
        with pytest.raises(ValueError, match="deleted"):
            index.search(index.data[:2], k=51)
        assert index.search(index.data[:2], k=50).ids.shape == (2, 50)

    def test_refit_clears_tombstones(self, index, tiny_uniform):
        index.delete([0])
        index.fit(tiny_uniform)
        assert index.num_tombstones == 0
        assert index.nlive == index.ntotal
