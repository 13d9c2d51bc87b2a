"""PM-LSH-specific persistence behaviour: parameters, the lazy pointer
tree, the flat arrays and the legacy archive shapes.  The round-trip
contract shared by every transport and backend lives in
``tests/persistence/test_snapshot_protocol.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import GaussianProjection
from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH
from tests.oracles.invariants import check_invariants


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

    def test_ball_cover_on_a_restored_index_builds_no_pointer_tree(
        self, index, small_clustered, tmp_path
    ):
        """Algorithm 1 probes the flat snapshot like every other query: a
        loaded index (a replica, a pool worker) answers it without first
        re-inserting every point into a pointer tree."""
        path = str(tmp_path / "bc_flat.npz")
        index.save(path)
        restored = PMLSH.load(path)
        hit = restored.ball_cover_query(small_clustered[7] + 1e-3, r=1.0)
        assert hit is not None and hit[0] == 7
        assert restored._tree is None

    def test_unbuilt_index_cannot_save(self, tmp_path):
        fresh = PMLSH(seed=0)
        with pytest.raises(RuntimeError):
            fresh.save(str(tmp_path / "nope.npz"))

class TestFlatTreePersistence:
    """The FlatPMTree arrays travel inside the archive: load() restores
    the batched hot path with no pointer-tree rebuild and no re-flatten."""

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

    def test_archive_with_retired_parameter_keys_still_loads(
        self, index, small_clustered, tmp_path
    ):
        """Archives written while ``PMLSHParams`` had a ``traversal``
        field, or the insert path's three, carry them in ``params_json``;
        loading drops them — and only them."""
        import json

        path = str(tmp_path / "current.npz")
        index.save(path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        params = json.loads(bytes(arrays["params_json"]).decode("utf-8"))
        for extra, loads in (
            ("traversal", True),
            ("build_method", True),
            ("split_promotion", True),
            ("split_partition", True),
            ("no_such_knob", False),
        ):
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

    def test_lazy_pointer_tree_materialises_on_read_not_for_add(
        self, index, small_clustered, tmp_path
    ):
        path = str(tmp_path / "lazygrow.npz")
        index.save(path)
        restored = PMLSH.load(path)
        assert restored._tree is None
        new_ids = restored.add(small_clustered[500:510])
        assert restored._tree is None  # the rows went to the flat tree's tail
        hit = restored.query(small_clustered[503], k=1)
        assert int(hit.ids[0]) == int(new_ids[3])
        check_invariants(restored.tree)  # over the indexed rows, on demand
        assert len(restored.tree) == restored.flat_tree.leaf_ids.size == index.n
