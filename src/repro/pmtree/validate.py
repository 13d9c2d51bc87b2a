"""Structural invariant checker for the PM-tree.

Used by the test suite (including the hypothesis property tests) to assert
that the bulk load — at fit, at a fold, on a lazy rebuild — leaves the
tree in a state where all pruning tests are *safe*:

* every indexed point appears in exactly one leaf;
* every covering sphere actually covers its subtree;
* every hyper-ring interval contains the pivot distances of its subtree;
* every stored parent distance matches the actual distance;
* all leaves sit at the same depth (the tree is balanced).
"""

from __future__ import annotations

import numpy as np

from repro.pmtree.tree import PMTree

#: Numerical slack for radius / ring containment checks.  Radii are computed
#: from the same float64 kernels used at query time, so the tolerance only
#: needs to absorb accumulated rounding, not algorithmic error.
TOLERANCE = 1e-7


def check_invariants(tree: PMTree) -> None:
    """Raise ``AssertionError`` describing the first violated invariant."""
    if tree.root is None:
        assert len(tree) == 0, "empty tree with non-zero count"
        return
    seen: list[int] = []
    leaf_depths: set[int] = set()
    _check_node(tree, tree.root, depth=0, seen=seen, leaf_depths=leaf_depths)
    assert len(leaf_depths) == 1, f"leaves at different depths: {sorted(leaf_depths)}"
    assert len(seen) == len(tree), f"point count mismatch: {len(seen)} != {len(tree)}"
    assert len(set(seen)) == len(seen), "a point id appears in more than one leaf"


def _check_node(tree: PMTree, node, depth: int, seen: list, leaf_depths: set) -> tuple:
    """Return ``(ids, max_ring_lo, min_ring_hi)`` aggregated over the subtree."""
    if node.is_leaf:
        leaf_depths.add(depth)
        seen.extend(node.ids)
        ids = np.asarray(node.ids, dtype=np.int64)
        return ids

    assert node.entries, "empty inner node"
    collected = []
    for entry in node.entries:
        subtree_ids = _check_node(tree, entry.child, depth + 1, seen, leaf_depths)
        assert subtree_ids.size > 0, "routing entry over an empty subtree"
        coords = tree.points[subtree_ids]
        dists = np.sqrt(np.einsum("ij,ij->i", coords - entry.center, coords - entry.center))
        assert float(dists.max()) <= entry.radius + TOLERANCE, (
            f"covering radius violated at depth {depth}: "
            f"max member distance {dists.max():.9f} > radius {entry.radius:.9f}"
        )
        if tree.num_pivots:
            rings = tree.pivot_dists[subtree_ids]
            lo, hi = entry.hr[:, 0], entry.hr[:, 1]
            assert bool(np.all(rings.min(axis=0) >= lo - TOLERANCE)), (
                f"hyper-ring lower bound violated at depth {depth}"
            )
            assert bool(np.all(rings.max(axis=0) <= hi + TOLERANCE)), (
                f"hyper-ring upper bound violated at depth {depth}"
            )
        # Parent distances inside the child must match the entry's centre.
        child = entry.child
        if child.is_leaf:
            member_coords = tree.points[child.ids_array]
            actual = np.sqrt(
                np.einsum("ij,ij->i", member_coords - entry.center, member_coords - entry.center)
            )
            stored = child.pd_array
        else:
            centers = child.centers
            actual = np.sqrt(
                np.einsum("ij,ij->i", centers - entry.center, centers - entry.center)
            )
            stored = child.pds
        assert bool(np.allclose(stored, actual, atol=1e-6)), (
            f"stored parent distances diverge from actual at depth {depth}"
        )
        collected.append(subtree_ids)
    return np.concatenate(collected)
