"""Fail if the process pool left shared-memory segments behind.

CI's process-backend smoke step runs after every bench/test step that
spins up a shared-memory worker pool (:mod:`repro.parallel`)::

    python tools/check_shm.py

Every segment the pool publishes carries the ``repro-shm`` name prefix,
so a clean run leaves ``/dev/shm`` with no matching entries.  Exit 1
(listing the offenders) when any survive — a leak means a
``WorkerPool.close()`` / ``PublishedSegment.close()`` path regressed.

``--quick-smoke`` additionally runs a tiny 2-worker process-backend
round first — publish, query, byte-identity against the serial engine,
shutdown — so the gate exercises the pool even when the preceding steps
were skipped, and checks that a process engine over a backend without
the snapshot protocol is refused at construction, before any worker
exists.
"""

from __future__ import annotations

import argparse
import sys


def _quick_smoke() -> None:
    import multiprocessing

    import numpy as np

    from repro import create_index
    from repro.datasets.synthetic import gaussian_mixture

    data = gaussian_mixture(400, 16, num_clusters=8, cluster_std=0.8, seed=0)
    queries = data[:6] * 1.01
    serial = create_index("sharded", backend="pm-lsh", num_shards=2, num_workers=1, seed=1).fit(data)
    process = create_index(
        "sharded", pool_backend="process", num_shards=2, num_workers=2, seed=1
    ).fit(data)
    try:
        expected = serial.search(queries, 5)
        got = process.search(queries, 5)
        if not (
            np.array_equal(got.ids, expected.ids)
            and np.array_equal(got.distances, expected.distances)
        ):
            raise SystemExit("process backend diverged from the serial engine")
    finally:
        process.close()
        serial.close()
    print("quick smoke: process backend == serial engine on 2 shards / 2 workers")
    try:
        create_index(
            "sharded", pool_backend="process", backend="qalsh", num_shards=2, num_workers=2
        )
    except NotImplementedError:
        pass
    else:
        raise SystemExit("process engine accepted a backend it cannot publish")
    if multiprocessing.active_children():
        raise SystemExit("refusing an unsupported backend left worker processes behind")
    print("quick smoke: unsupported shard backend refused at construction, no workers")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument(
        "--quick-smoke",
        action="store_true",
        help="run a tiny 2-worker process-backend round before the leak scan",
    )
    args = parser.parse_args(argv)

    if args.quick_smoke:
        _quick_smoke()

    from repro.parallel.shm import leaked_segments

    leaked = leaked_segments()
    if leaked:
        print(
            f"leaked shared-memory segments ({len(leaked)}):", file=sys.stderr
        )
        for name in leaked:
            print(f"  /dev/shm/{name}", file=sys.stderr)
        return 1
    print("no leaked repro-shm segments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
