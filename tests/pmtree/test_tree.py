"""The array build: ``PMTree.build`` emits the packed breadth-first arrays
the pointer-tree oracle's bulk build and breadth-first packing produce —
byte for byte — and its pivot distances are computed by differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmtree import tree as tree_module
from repro.pmtree.flat import FlatPMTree
from repro.pmtree.tree import PMTree
from tests.oracles.invariants import check_invariants
from tests.oracles.pointer_tree import PointerPMTree, pack


def _snapshot_bytes(flat: FlatPMTree) -> dict:
    """What a snapshot persists plus the dense pass's float32 copies."""
    arrays = flat.to_arrays()
    arrays["leaf_points"], arrays["leaf_sqnorm"] = flat.leaf_points, flat.leaf_sqnorm
    return arrays


def _assert_same_bytes(got: FlatPMTree, want: FlatPMTree) -> None:
    got, want = _snapshot_bytes(got), _snapshot_bytes(want)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


@st.composite
def build_case(draw):
    """Sizes from one point to several levels; capacities from the floor
    to past 128, where a centre is chosen from a random sample; a third
    of the rows duplicated; far from the origin or not."""
    n = draw(st.integers(min_value=1, max_value=3000))
    m = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m)) * draw(st.sampled_from([0.5, 5.0]))
    if draw(st.booleans()):
        points[: n // 3] = points[rng.integers(0, n, size=n // 3)]
    points += draw(st.sampled_from([0.0, 1e6]))
    capacity = draw(st.sampled_from([4, 8, 16, 128, 200]))
    num_pivots = min(n, draw(st.sampled_from([0, 3, 5])))
    return points, num_pivots, capacity, seed


@given(build_case())
@settings(max_examples=60, deadline=None)
def test_build_equals_the_oracle_packed_breadth_first(case):
    points, num_pivots, capacity, seed = case
    tree = PMTree.build(points, num_pivots=num_pivots, capacity=capacity, seed=seed)
    oracle = PointerPMTree.build(points, num_pivots=num_pivots, capacity=capacity, seed=seed)
    _assert_same_bytes(tree.flatten(), pack(oracle))
    check_invariants(tree)


@pytest.mark.parametrize(
    "n, capacity, height", [(1, 4, 1), (16, 16, 1), (17, 16, 2), (600, 200, 2), (3000, 4, 6)]
)
def test_single_leaf_and_deep_trees(n, capacity, height):
    points = np.random.default_rng(n).normal(size=(n, 5))
    tree = PMTree.build(points, num_pivots=2 if n > 1 else 1, capacity=capacity, seed=3)
    oracle = PointerPMTree.build(points, num_pivots=2 if n > 1 else 1, capacity=capacity, seed=3)
    assert len(tree.levels) == oracle.height() == height
    assert len(tree) == n
    _assert_same_bytes(tree.flatten(), pack(oracle))


def test_the_rng_is_left_where_the_oracle_leaves_it():
    """PM-LSH threads one generator through the build into its F(x)
    sample, so the build must draw exactly what the pointer build drew."""
    points = np.random.default_rng(1).normal(size=(2000, 6))
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    PMTree.build(points, num_pivots=5, capacity=200, seed=ours)
    PointerPMTree.build(points, num_pivots=5, capacity=200, seed=theirs)
    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


def test_from_tree_wraps_the_arrays_it_was_given():
    tree = PMTree.build(np.random.default_rng(0).normal(size=(300, 4)), capacity=16, seed=0)
    flat = FlatPMTree.from_tree(tree)
    for name in FlatPMTree.FIELDS:
        assert getattr(flat, name) is getattr(tree, name), name


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        PMTree.build(np.empty((0, 3)))
    with pytest.raises(ValueError):
        PMTree.build(np.ones((10, 3)), capacity=2)
    with pytest.raises(ValueError):
        PMTree.build(np.ones((10, 3)), pivots=np.ones((2, 4)))


@pytest.mark.parametrize("offset", [0.0, 50.0, 1e6, 1e8])
def test_pivot_distances_come_from_differences(offset):
    """The norm expansion was off by 0.09 at +1e6 and by 14 at +1e8;
    by differences every entry is the distance to an ulp."""
    rng = np.random.default_rng(2)
    points = rng.normal(size=(500, 8)) + offset
    tree = PMTree.build(points, num_pivots=5, capacity=16, seed=2)
    diff = points[:, None, :] - tree.pivots[None, :, :]
    exact = np.sqrt(np.einsum("nsm,nsm->ns", diff, diff))
    np.testing.assert_allclose(tree.pivot_dists, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n, m", [(3000, 7), (9000, 24)])
def test_blocked_distances_build_the_same_bytes(n, m, monkeypatch):
    """The bulk build's distances run through one reused block; against
    one-shot difference matrices every flat array is byte-equal."""

    def one_shot(rows, anchor):
        diff = rows - anchor
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def one_shot_owners(rows, ids, anchors, bounds):
        diff = rows[ids] - np.repeat(anchors, np.diff(bounds), axis=0)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    points = np.random.default_rng(n).normal(size=(n, m)) * 3.0
    blocked = PMTree.build(points, num_pivots=5, capacity=32, seed=1).flatten()
    monkeypatch.setattr(tree_module, "_distances_to", one_shot)
    monkeypatch.setattr(tree_module, "_distances_to_owners", one_shot_owners)
    _assert_same_bytes(blocked, PMTree.build(points, num_pivots=5, capacity=32, seed=1).flatten())
