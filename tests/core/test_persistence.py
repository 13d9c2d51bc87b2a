"""Tests for PM-LSH index persistence (save / load round trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import GaussianProjection
from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH
from repro.pmtree.validate import check_invariants


@pytest.fixture(scope="module")
def index(small_clustered):
    return PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small_clustered[:500])


class TestFromDirections:
    def test_round_trip_projection(self):
        original = GaussianProjection(16, 6, seed=3)
        rebuilt = GaussianProjection.from_directions(original.directions)
        point = np.arange(16, dtype=np.float64)
        np.testing.assert_allclose(rebuilt.project(point), original.project(point))
        assert rebuilt.m == 6 and rebuilt.dim == 16

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GaussianProjection.from_directions(np.zeros(5))
        with pytest.raises(ValueError):
            GaussianProjection.from_directions(np.empty((0, 4)))


class TestSaveLoad:
    def test_round_trip_answers_identically(self, index, small_clustered, tmp_path):
        path = str(tmp_path / "index.npz")
        index.save(path)
        restored = PMLSH.load(path)
        assert restored.is_built
        assert restored.n == index.n
        check_invariants(restored.tree)
        rng = np.random.default_rng(4)
        for _ in range(5):
            q = small_clustered[rng.integers(0, 500)] + 0.01
            a = index.query(q, k=10)
            b = restored.query(q, k=10)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_allclose(a.distances, b.distances, rtol=1e-12)

    def test_params_survive(self, small_clustered, tmp_path):
        params = PMLSHParams(m=10, num_pivots=3, c=1.8, node_capacity=16,
                             use_rings=False)
        original = PMLSH(params=params, seed=1).fit(small_clustered[:200])
        path = str(tmp_path / "custom.npz")
        original.save(path)
        restored = PMLSH.load(path)
        assert restored.params == params
        assert restored.tree.num_pivots == 3
        assert not restored.tree.use_rings

    def test_pivot_method_survives_load(self, small_clustered, tmp_path):
        """Regression: load() used to rebuild the tree without passing
        pivot_method, silently reverting the rebuilt tree's re-selection
        policy to the default."""
        params = PMLSHParams(pivot_method="variance", node_capacity=32)
        original = PMLSH(params=params, seed=2).fit(small_clustered[:300])
        assert original.tree.pivot_method == "variance"
        path = str(tmp_path / "variance.npz")
        original.save(path)
        restored = PMLSH.load(path)
        assert restored.params.pivot_method == "variance"
        assert restored.tree.pivot_method == "variance"
        np.testing.assert_allclose(restored.tree.pivots, original.tree.pivots)

    def test_loaded_index_supports_add(self, small_clustered, tmp_path):
        """A restored index keeps the full lifecycle: growth after load
        answers like growth before save."""
        base, extra = small_clustered[:300], small_clustered[300:330]
        original = PMLSH(seed=3).fit(base)
        path = str(tmp_path / "grow.npz")
        original.save(path)
        restored = PMLSH.load(path)
        original.add(extra)
        restored.add(extra)
        q = extra[5] + 0.001
        a, b = original.query(q, k=10), restored.query(q, k=10)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_allclose(a.distances, b.distances, rtol=1e-12)

    def test_ball_cover_after_load(self, index, small_clustered, tmp_path):
        path = str(tmp_path / "bc.npz")
        index.save(path)
        restored = PMLSH.load(path)
        q = small_clustered[7]
        a = index.ball_cover_query(q, r=1.0, exclude={7})
        b = restored.ball_cover_query(q, r=1.0, exclude={7})
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0]

    def test_unbuilt_index_cannot_save(self, tmp_path):
        fresh = PMLSH(seed=0)
        with pytest.raises(RuntimeError):
            fresh.save(str(tmp_path / "nope.npz"))

    def test_loaded_index_supports_further_growth(
        self, index, small_clustered, tmp_path
    ):
        path = str(tmp_path / "ext.npz")
        index.save(path)
        restored = PMLSH.load(path)
        new_ids = restored.add(small_clustered[500:520])
        assert restored.n == index.n + 20
        hit = restored.query(small_clustered[505], k=1)
        assert int(hit.ids[0]) == int(new_ids[5])


class TestFlatTreePersistence:
    """The FlatPMTree arrays travel inside the archive: load() restores
    the batched hot path with no pointer-tree rebuild and no re-flatten."""

    def test_archive_contains_flat_arrays(self, index, tmp_path):
        path = str(tmp_path / "flat.npz")
        index.save(path)
        with np.load(path) as archive:
            keys = set(archive.files)
        assert {"flat_is_leaf", "flat_entry_center", "flat_leaf_ids",
                "flat_levels", "flat_pivot_dists"} <= keys

    def test_load_neither_rebuilds_nor_reflattens(
        self, index, small_clustered, tmp_path, monkeypatch
    ):
        from repro.pmtree.tree import PMTree

        path = str(tmp_path / "noflatten.npz")
        index.save(path)
        monkeypatch.setattr(
            PMTree, "flatten",
            lambda self: pytest.fail("load() re-flattened the pointer tree"),
        )
        monkeypatch.setattr(
            PMTree, "build",
            classmethod(lambda cls, *a, **k: pytest.fail("load() rebuilt the tree")),
        )
        restored = PMLSH.load(path)
        assert restored._tree is None  # pointer tree not materialised
        assert restored._flat is not None  # snapshot restored from arrays
        restored.search(small_clustered[:8] + 0.01, k=5)  # flat path serves
        assert restored._tree is None

    def test_round_trip_batch_results_byte_identical(
        self, index, small_clustered, tmp_path
    ):
        path = str(tmp_path / "bytes.npz")
        index.save(path)
        restored = PMLSH.load(path)
        queries = small_clustered[:20] + 0.01
        a, b = index.search(queries, 10), restored.search(queries, 10)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)
        ra, rb = index.range_search(queries, r=4.0), restored.range_search(queries, r=4.0)
        np.testing.assert_array_equal(ra.lims, rb.lims)
        np.testing.assert_array_equal(ra.ids, rb.ids)
        np.testing.assert_array_equal(ra.distances, rb.distances)
        # … including the traversal counters (same nodes pruned/visited).
        assert a.stats["tree_nodes"] == b.stats["tree_nodes"]
        assert ra.stats["tree_dist_comps"] == rb.stats["tree_dist_comps"]

    def test_flat_snapshot_matches_original_arrays(self, index, tmp_path):
        path = str(tmp_path / "arrays.npz")
        index.save(path)
        restored = PMLSH.load(path)
        original, loaded = index.flat_tree, restored.flat_tree
        for key, value in original.to_arrays().items():
            np.testing.assert_array_equal(value, loaded.to_arrays()[key], err_msg=key)
        np.testing.assert_array_equal(original.points, loaded.points)

    def test_legacy_archive_without_flat_arrays_still_loads(
        self, index, small_clustered, tmp_path
    ):
        """Archives from before the flat arrays (no flat_* keys) fall back
        to the eager deterministic rebuild."""
        path = str(tmp_path / "legacy.npz")
        index.save(path)
        with np.load(path) as archive:
            stripped = {
                key: archive[key]
                for key in archive.files
                if not key.startswith("flat_")
            }
        legacy_path = str(tmp_path / "legacy_stripped.npz")
        np.savez_compressed(legacy_path, **stripped)
        restored = PMLSH.load(legacy_path)
        assert restored._tree is not None  # eager rebuild path
        q = small_clustered[3] + 0.01
        np.testing.assert_array_equal(
            restored.query(q, 5).ids, index.query(q, 5).ids
        )

    def test_archive_with_retired_traversal_key_still_loads(
        self, index, small_clustered, tmp_path
    ):
        """Archives written while ``PMLSHParams`` had a ``traversal`` field
        carry it in ``params_json``; loading drops it — and only it."""
        import json

        path = str(tmp_path / "current.npz")
        index.save(path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        params = json.loads(bytes(arrays["params_json"]).decode("utf-8"))
        for extra, loads in (("traversal", True), ("no_such_knob", False)):
            doctored = json.dumps({**params, extra: "flat"}).encode("utf-8")
            arrays["params_json"] = np.frombuffer(doctored, dtype=np.uint8)
            old_path = str(tmp_path / f"with_{extra}.npz")
            np.savez_compressed(old_path, **arrays)
            if not loads:
                with pytest.raises(TypeError):
                    PMLSH.load(old_path)
                continue
            q = small_clustered[3] + 0.01
            np.testing.assert_array_equal(
                PMLSH.load(old_path).query(q, 5).ids, index.query(q, 5).ids
            )

    def test_lazy_pointer_tree_materialises_for_add(
        self, index, small_clustered, tmp_path
    ):
        path = str(tmp_path / "lazygrow.npz")
        index.save(path)
        restored = PMLSH.load(path)
        assert restored._tree is None
        new_ids = restored.add(small_clustered[500:510])
        assert restored._tree is not None
        hit = restored.query(small_clustered[503], k=1)
        assert int(hit.ids[0]) == int(new_ids[3])


class TestLoadIndexDispatch:
    """repro.load_index(path): registry-name dispatch to the right class."""

    def test_dispatches_to_pmlsh(self, index, small_clustered, tmp_path):
        import repro

        path = str(tmp_path / "dispatch.npz")
        index.save(path)
        restored = repro.load_index(path)
        assert isinstance(restored, PMLSH)
        q = small_clustered[3] + 0.01
        np.testing.assert_array_equal(
            restored.query(q, 5).ids, index.query(q, 5).ids
        )

    def test_dispatches_to_exact(self, small_clustered, tmp_path):
        import repro
        from repro.baselines.exact import ExactKNN

        original = ExactKNN().fit(small_clustered[:150])
        path = str(tmp_path / "exact.npz")
        original.save(path)
        restored = repro.load_index(path)
        assert isinstance(restored, ExactKNN)
        assert restored.ntotal == 150
        q = small_clustered[7] + 0.01
        np.testing.assert_array_equal(
            restored.query(q, 4).ids, original.query(q, 4).ids
        )

    def test_archive_without_name_rejected(self, tmp_path):
        import repro

        path = str(tmp_path / "anon.npz")
        np.savez(path, data=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="registry_name"):
            repro.load_index(path)

    def test_saved_registry_name_readable(self, index, tmp_path):
        from repro.persistence import saved_registry_name

        path = str(tmp_path / "named.npz")
        index.save(path)
        assert saved_registry_name(path) == "pm-lsh"
