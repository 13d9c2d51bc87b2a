"""Cross-backend contract sweep: registry × query type × {product, oracle}.

Every registered index answers kNN, range and closest-pair queries with
the product kernels and again with the reference kernels swapped onto
the kernel set (``tests.oracles.reference_kernels``), on a dataset with
a planted duplicate triple so exact distance ties exercise the canonical
``(distance, id)`` cut everywhere.  The assertion is byte equality — for
indexes that call no kernel this pins that the swap is transparent; for
those that do (PM-LSH, QALSH, C2LSH, E2LSH, LSB-Forest) it pins that the
fused kernels change nothing but speed.  Fresh same-seed indexes are
built per mode: the rng-consuming fallbacks would otherwise drift
between runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from contextlib import nullcontext

from repro import create_index
from repro.queries import Knn, Range
from tests.oracles import reference_kernels

MODES = {"product": nullcontext, "oracle": reference_kernels}

ALL_NAMES = [
    "c2lsh",
    "e2lsh",
    "exact",
    "lsb-forest",
    "lscan",
    "multi-probe",
    "pm-lsh",
    "process-sharded",
    "qalsh",
    "r-lsh",
    "sharded",
    "srs",
]

#: Constructor kwargs per case, sized for a fast sweep.  The case name is
#: the registry name, except "process-sharded": the sharded engine over
#: the worker-process pool.
KWARGS = {name: {"seed": 3} for name in ALL_NAMES}
KWARGS["exact"] = {}
KWARGS["lsb-forest"] = {"num_trees": 3, "m": 6, "seed": 3}
KWARGS["sharded"] = {"num_shards": 2, "seed": 3}
KWARGS["process-sharded"] = {
    "num_shards": 2,
    "num_workers": 2,
    "seed": 3,
    "pool_backend": "process",
}


def _create(name):
    return create_index("sharded" if name == "process-sharded" else name, **KWARGS[name])


def _dataset():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(500, 10))
    data[50] = data[10]  # duplicate triple: ties at identical distance
    data[51] = data[10]
    return data


def _queries(data):
    queries = np.asarray(data[:5]) + 0.01
    queries[2] = data[10]  # exactly on the tie
    return queries


def _sweep(index, queries, spec_kind):
    if spec_kind == "knn":
        result = index.run(queries, Knn(k=8))
        return (result.ids, result.distances)
    if spec_kind == "range":
        result = index.run(queries, Range(r=3.5))
        return (result.lims, result.ids, result.distances)
    result = index.closest_pairs(m=4)
    return (result.pairs, result.distances)


@pytest.mark.parametrize("spec_kind", ["knn", "range", "closest-pairs"])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_backend_times_query_times_dispatch(name, spec_kind):
    data = _dataset()
    queries = _queries(data)
    outputs = {}
    for mode, swapped in MODES.items():
        with swapped():
            index = _create(name).fit(data)
            try:
                outputs[mode] = _sweep(index, queries, spec_kind)
            finally:
                if hasattr(index, "close"):
                    index.close()
    for got, want in zip(outputs["product"], outputs["oracle"]):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["exact", "e2lsh", "pm-lsh", "lsb-forest"])
def test_duplicate_tie_returned_in_id_order(name):
    """When the duplicate triple makes the cut, its members appear in
    ascending id order with product and oracle kernels alike."""
    data = _dataset()
    queries = data[10][None, :]
    for mode, swapped in MODES.items():
        with swapped():
            index = create_index(name, **KWARGS[name]).fit(data)
            row = index.run(queries, Knn(k=8)).ids[0]
            tied = [int(i) for i in row if int(i) in {10, 50, 51}]
            assert tied == sorted(tied), (mode, row)
