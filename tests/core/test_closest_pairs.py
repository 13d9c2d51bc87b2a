"""PM-LSH's closest-pair join against the written-out oracle.

``index.closest_pairs`` takes every live point's projected neighbourhood
from the exact scan; ``tests.oracles.recursive_probe.closest_pairs``
takes it from difference tensors and redoes the budget cut, the dedupe
and the ``(distance, i, j)`` sort pair by pair.  Every cell holds the
pairs, the distances and the four stats byte for byte: near and far from
the origin, with planted duplicates, tombstones, an unindexed tail, a
compaction followed by growth, small budgets and m = 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PMLSH
from repro.datasets.synthetic import gaussian_mixture
from tests.oracles import recursive_probe

STATS = ("candidate_pairs", "verified", "budget", "neighbors_per_point")


def assert_same_pairs(got, want) -> None:
    assert got.pairs.dtype == want.pairs.dtype
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert {key: got.stats[key] for key in STATS} == want.stats


def with_duplicates(n: int, d: int, seed: int, offset: float) -> np.ndarray:
    """50 clusters, then one row in a hundred stored twice (distance-0
    pairs for the join to find), all shifted by *offset*."""
    dups = n // 100
    data = gaussian_mixture(n - dups, d, num_clusters=50, seed=seed)
    picks = np.random.default_rng(seed).choice(n - dups, size=dups, replace=False)
    return np.vstack([data, data[picks]]) + offset


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
@pytest.mark.parametrize("tombstoned", [False, True], ids=["all-live", "every-7th-deleted"])
@pytest.mark.parametrize("seed, n, d", [(0, 2000, 16), (1, 3000, 64)])
def test_join_equals_the_oracle(offset, tombstoned, seed, n, d):
    index = PMLSH(seed=seed).fit(with_duplicates(n, d, seed, offset))
    if tombstoned:
        index.delete(np.arange(0, n, 7))
    assert_same_pairs(index.closest_pairs(100), recursive_probe.closest_pairs(index, 100))


@pytest.mark.parametrize("state", ["tail", "compacted-then-grown"])
def test_tail_tombstones_budgets_and_m(state):
    """4000 × 48: 3100 rows in the tree, 900 in the unindexed tail, every
    5th row deleted; then compacted and grown by 300 rows."""
    data = with_duplicates(4300, 48, 2, 0.0)
    index = PMLSH(seed=2).fit(data[:3100])
    index.add(data[3100:4000])
    assert index.flat_tree.leaf_ids.size == 3100  # the tail is not folded
    index.delete(np.arange(0, 4000, 5))
    if state != "tail":
        index.compact()
        index.add(data[4000:])
    for m in (1, 10, 50):
        for budget in (None, 200):
            got = index.closest_pairs(m, budget=budget)
            want = recursive_probe.closest_pairs(index, m, budget=budget)
            assert_same_pairs(got, want)
            assert got.pairs.shape == (m, 2)
