"""Baseline batch paths equal their per-query loops, byte for byte.

The QALSH / C2LSH / E2LSH / LSB-Forest kNN batch entry points are
bucketed / round-synchronous batch implementations ending in one
gathered ``verify_distances`` + ``group_topk``.  The contract is
byte-identity with the per-query ``_query_one`` loop (the base class's
default ``_run_knn``) — ids, distances *and* stats — including
exact-duplicate ties and tombstoned ids.

Every comparison builds a fresh same-seed index per path: E2LSH and
LSB consume their shared fallback generator during queries, so reusing
one index across two runs would drift the rng state, not test identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_index, kernels
from repro.baselines.base import ANNIndex
from repro.queries import Knn


def _dataset(seed=5, n=900, d=12):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    data[50] = data[10]  # planted duplicates => exact distance ties
    data[51] = data[10]
    data[200] = data[201]
    return data


def _queries(data):
    rng = np.random.default_rng(99)
    queries = rng.normal(size=(7, data.shape[1]))
    queries[3] = data[10]  # lands exactly on the duplicate triple
    return queries


BASELINES = {
    "e2lsh": {"seed": 3},
    "qalsh": {"seed": 3},
    "c2lsh": {"seed": 3},
    "lsb-forest": {"num_trees": 3, "m": 6, "seed": 3},
    "multi-probe": {"seed": 3},
}


def _run(name, kwargs, data, queries, path, delete=None):
    index = create_index(name, **kwargs).fit(data)
    if delete is not None:
        index.delete(delete)
    if path == "loop":  # the base class's per-row _query_one loop
        index._run_knn = lambda block, spec: ANNIndex._run_knn(index, block, spec)
    return index.run(queries, Knn(k=10))


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_batch_equals_loop_bytes(name):
    data = _dataset()
    queries = _queries(data)
    loop = _run(name, BASELINES[name], data, queries, "loop")
    batch = _run(name, BASELINES[name], data, queries, "batch")
    assert batch.ids.tobytes() == loop.ids.tobytes()
    assert batch.distances.tobytes() == loop.distances.tobytes()
    assert batch.stats == loop.stats
    assert batch.per_query_stats == loop.per_query_stats


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_batch_equals_loop_under_tombstones(name):
    data = _dataset(seed=8)
    queries = _queries(data)
    dead = list(range(0, 150, 2))
    loop = _run(name, BASELINES[name], data, queries, "loop", delete=dead)
    batch = _run(name, BASELINES[name], data, queries, "batch", delete=dead)
    assert batch.ids.tobytes() == loop.ids.tobytes()
    assert batch.distances.tobytes() == loop.distances.tobytes()
    returned = set(batch.ids.ravel().tolist()) - {-1}
    assert not returned & set(dead)


def test_qalsh_bptree_backend_stays_on_loop_and_agrees():
    """QALSH's batch path needs the sorted-array backend; the bptree
    backend must fall back to the loop and still answer identically."""
    data = _dataset(seed=2)
    queries = _queries(data)
    results = {}
    for storage in ("array", "bptree"):
        index = create_index("qalsh", backend=storage, seed=3).fit(data)
        results[storage] = index.run(queries, Knn(k=10))
    assert results["bptree"].ids.tobytes() == results["array"].ids.tobytes()
    assert (
        results["bptree"].distances.tobytes()
        == results["array"].distances.tobytes()
    )


def test_duplicate_ties_cut_in_id_order():
    """The planted duplicate triple has identical distances; both
    paths must order the tie by ascending id (the canonical cut)."""
    data = _dataset()
    queries = data[10][None, :]
    for path in ("loop", "batch"):
        result = _run("e2lsh", BASELINES["e2lsh"], data, queries, path)
        row = result.ids[0]
        tied = [int(i) for i in row if int(i) in {10, 50, 51}]
        assert tied == sorted(tied)
        assert len(tied) == 3


def test_batch_pools_one_verification_kernel_call():
    """The batch path's win: candidates verified in one gathered kernel
    call (plus one group_topk), not one call per query."""
    data = _dataset()
    queries = _queries(data)
    index = create_index("e2lsh", seed=3).fit(data)
    kernels.reset_kernel_calls()
    index.run(queries, Knn(k=10))
    calls = kernels.kernel_calls()
    assert calls[("fast", "verify_distances")] == 1
    assert calls[("fast", "group_topk")] == 1
