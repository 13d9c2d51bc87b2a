"""The hash-count rule: PM-LSH picks m from the dataset size at ``fit``.

``PMLSHParams(m=None)`` (the default) resolves through
``repro.core.params.hash_count_for``; an explicit m is honoured exactly.
The fitted index holds the resolved int in ``params``, so every way an
index is re-made from another — a snapshot, a compaction clone, a grown
tail — keeps it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import PMLSH, PMLSHParams, create_index, load_index
from repro.baselines.rlsh import RLSH
from repro.core.estimation import solve_parameters
from repro.core.params import BUDGET_FLOOR, HASH_COUNT_RANGE, hash_count_for
from repro.lifecycle.compaction import compact_index

#: The n → m table of docs/tuning.md ("How many hash functions").
TABLE = {
    0: 15, 800: 15, 5_000: 15, 25_000: 15, 45_000: 15, 50_000: 16, 55_000: 17,
    60_000: 18, 70_000: 19, 100_000: 19, 200_000: 19, 10**7: 19,
}


def _data(n, d=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


#: A size the rule gives m = 19, and one that resolves to 15 afresh.
N, SMALL = 70_000, 3_000


def test_the_documented_table():
    params = PMLSHParams()
    assert {n: hash_count_for(n, params) for n in TABLE} == TABLE


@pytest.mark.parametrize("n", sorted(TABLE))
def test_the_largest_m_whose_budget_clears_the_floor(n):
    params = PMLSHParams()
    m = hash_count_for(n, params)
    low, high = HASH_COUNT_RANGE

    def budget(m):
        return math.ceil(solve_parameters(m=m, c=params.c).beta * n)

    assert low <= m <= high
    if m > low:
        assert budget(m) >= BUDGET_FLOOR
    if m < high:
        assert budget(m + 1) < BUDGET_FLOOR


def test_the_rule_reads_the_solved_budget_of_its_params():
    """A looser c solves a smaller β at every m, so the rule needs more
    points for the same m."""
    assert hash_count_for(60_000, PMLSHParams(c=2.0)) < hash_count_for(60_000, PMLSHParams())


def test_explicit_m_is_honoured():
    assert hash_count_for(100_000, PMLSHParams(m=15)) == 15
    index = PMLSH(params=PMLSHParams(m=17), seed=0).fit(_data(SMALL))
    assert index.params.m == 17 == index.solved.m
    assert index.projected.shape[1] == 17


def test_fit_stores_the_resolved_m_and_solves_for_it():
    index = PMLSH(seed=0)
    assert index.params.m is None and index.solved.m == HASH_COUNT_RANGE[0]
    index.fit(_data(N))
    assert index.params.m == 19 == index.solved.m == index.flat_tree.points.shape[1]
    assert index.solved.beta == pytest.approx(solve_parameters(m=19, c=1.5).beta)
    assert index.solved_for(None) is index.solved
    assert index.solved_for(2.0).m == 19


def test_add_snapshot_and_compaction_keep_the_resolved_m(tmp_path):
    index = PMLSH(seed=0).fit(_data(N))
    index.add(_data(500, seed=1))
    assert index.params.m == 19
    path = tmp_path / "index.npz"
    index.save(path)
    restored = load_index(path)
    assert restored.params.m == 19
    queries = _data(4, seed=2)
    want = index.search(queries, 5)
    got = restored.search(queries, 5)
    assert got.ids.tobytes() == want.ids.tobytes()
    # SMALL live rows would resolve to m = 15 afresh; the clone keeps 19.
    index.delete(np.arange(N + 500 - SMALL))
    fresh, _ = compact_index(index)
    assert fresh.ntotal == SMALL and fresh.params.m == 19


def test_each_shard_resolves_its_own_size():
    engine = create_index("sharded", backend="pm-lsh", num_shards=2, seed=0)
    engine.fit(_data(2 * 55_000))
    assert [shard.params.m for shard in engine.shards] == [17, 17]


def test_rlsh_keeps_the_papers_m():
    assert RLSH(seed=0).params.m == 15
    assert RLSH(params=PMLSHParams(m=20), seed=0).params.m == 20
