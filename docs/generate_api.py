"""Generate ``docs/api.md`` from the library's live docstrings.

The reference is *generated, not written*: every section below is the
``__doc__`` of the public object it documents, so the page can never
drift from the code.  CI regenerates it with ``--check`` and fails when
the committed file is stale::

    PYTHONPATH=src python docs/generate_api.py          # rewrite docs/api.md
    PYTHONPATH=src python docs/generate_api.py --check  # verify freshness
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

HEADER = """\
# API reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: PYTHONPATH=src python docs/generate_api.py -->

Generated from the library's docstrings by [`docs/generate_api.py`](generate_api.py);
CI fails when this file goes stale.  Start with the
[architecture overview](architecture.md) for how the pieces fit together,
the [tuning guide](tuning.md) for the knobs, and the
[lifecycle guide](lifecycle.md) for deletes, compaction and replica
snapshots.

A minimal end-to-end session:

```python
import numpy as np
import repro

data = np.random.default_rng(0).normal(size=(2000, 32))
index = repro.create_index("pm-lsh", seed=42).fit(data)
batch = index.search(data[:8] + 0.01, k=5)      # -> BatchResult
ragged = index.range_search(data[:4], r=5.0)    # -> RangeResult
pairs = index.closest_pairs(3)                  # -> ClosestPairResult
assert batch.ids.shape == (8, 5)
```
"""


def _doc(obj) -> str:
    doc = inspect.getdoc(obj) or "*(undocumented)*"
    return doc.rstrip()


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _method_section(cls, name: str) -> str:
    member = inspect.getattr_static(cls, name)
    raw = member
    if isinstance(member, (classmethod, staticmethod)):
        raw = member.__func__
    if isinstance(member, property):
        title = f"`{cls.__name__}.{name}` *(property)*"
        doc = _doc(member.fget)
    else:
        title = f"`{cls.__name__}.{name}{_signature(raw)}`"
        doc = _doc(raw)
    return f"#### {title}\n\n```text\n{doc}\n```\n"


def _class_section(cls, members) -> str:
    parts = [f"### `{cls.__module__.split('.')[0]}.{cls.__name__}`\n"]
    parts.append(f"```text\n{_doc(cls)}\n```\n")
    for name in members:
        parts.append(_method_section(cls, name))
    return "\n".join(parts)


def _function_section(fn) -> str:
    return (
        f"### `{fn.__module__.split('.')[0]}.{fn.__name__}{_signature(fn)}`\n\n"
        f"```text\n{_doc(fn)}\n```\n"
    )


def build() -> str:
    import repro
    from repro import kernels
    from repro.baselines.base import ANNIndex, BatchResult, QueryResult
    from repro.core.hashing import GaussianProjection, SampledProjection
    from repro.core.params import PMLSHParams
    from repro.core.pmlsh import PMLSH
    from repro.engine.sharded import ShardedIndex
    from repro.lifecycle.compaction import (
        CompactionPolicy,
        CompactionResult,
        compact_index,
    )
    from repro.lifecycle.replica import Replica
    from repro.lifecycle.tombstones import TombstoneSet
    from repro.obs.export import parse_prometheus, render_prometheus
    from repro.obs.metrics import (
        Counter,
        Gauge,
        Histogram,
        LatencyWindow,
        MetricsRegistry,
        MetricsSnapshot,
        default_registry,
    )
    from repro.obs.slowlog import SlowQueryLog
    from repro.parallel.pool import WorkerPool
    from repro.parallel.shm import (
        SegmentHandle,
        attach_segment,
        leaked_segments,
        publish_arrays,
    )
    from repro.obs.tracing import Trace, Tracer, current_trace, use_trace
    from repro.persistence import (
        SnapshotError,
        export_state,
        restore_state,
        snapshot_epoch,
    )
    from repro.pmtree.flat import FlatPMTree
    from repro.queries import ClosestPairResult, Knn, Range, RangeResult
    from repro.serving.admission import DeadlineExceeded, QueueFull, expired
    from repro.serving.cache import QueryCache
    from repro.serving.clock import Clock, LoopClock, VirtualClock
    from repro.serving.server import AsyncSearchServer

    sections = [
        HEADER,
        "## Factory and persistence\n",
        _function_section(repro.create_index),
        _function_section(repro.available_indexes),
        _function_section(repro.load_index),
        _class_section(SnapshotError, []),
        _function_section(export_state),
        _function_section(restore_state),
        "## The index interface\n",
        _class_section(
            ANNIndex,
            [
                "fit",
                "add",
                "delete",
                "compact",
                "search",
                "run",
                "range_search",
                "closest_pairs",
                "query",
                "save",
                "load",
                "state_arrays",
                "from_state_arrays",
                "ntotal",
                "nlive",
                "epoch",
            ],
        ),
        "## Query specs\n",
        _class_section(Knn, []),
        _class_section(Range, []),
        "## Result containers\n",
        _class_section(QueryResult, []),
        _class_section(BatchResult, []),
        _class_section(RangeResult, ["counts"]),
        _class_section(ClosestPairResult, []),
        "## PM-LSH\n",
        _class_section(PMLSH, ["flat_tree", "state_arrays", "from_state_arrays"]),
        _class_section(PMLSHParams, []),
        _class_section(FlatPMTree, ["batch_range", "batch_knn"]),
        "## Kernels\n",
        _function_section(kernels.active),
        _function_section(kernels.kernel_calls),
        _function_section(kernels.reset_kernel_calls),
        _class_section(kernels.KernelSet, []),
        "## Hash families\n",
        _class_section(GaussianProjection, ["project"]),
        _class_section(SampledProjection, ["project", "from_arrays"]),
        "## The sharded serving engine\n",
        _class_section(ShardedIndex, ["stats", "locate", "close"]),
        "## The process-parallel worker pool\n",
        _class_section(
            WorkerPool,
            ["start", "publish", "run", "ping", "owner", "close", "terminate"],
        ),
        _function_section(publish_arrays),
        _function_section(attach_segment),
        _function_section(leaked_segments),
        _class_section(SegmentHandle, []),
        "## Index lifecycle: deletes, compaction, replicas\n",
        _class_section(TombstoneSet, ["mark", "contains", "alive_mask", "live_ids"]),
        _class_section(CompactionPolicy, ["reason", "should_compact"]),
        _class_section(CompactionResult, []),
        _function_section(compact_index),
        _class_section(Replica, ["refresh"]),
        _function_section(snapshot_epoch),
        "## The async serving front-end\n",
        _class_section(
            AsyncSearchServer,
            [
                "submit",
                "submit_many",
                "add",
                "delete",
                "compact",
                "swap_index",
                "flush",
                "close",
                "stats",
                "queue_depth",
            ],
        ),
        _class_section(QueryCache, ["get", "put", "invalidate", "key_for"]),
        "## Admission control\n",
        _class_section(DeadlineExceeded, []),
        _class_section(QueueFull, []),
        _function_section(expired),
        "## Clocks: virtual time for serving tests\n",
        _class_section(Clock, ["now", "call_later"]),
        _class_section(LoopClock, []),
        _class_section(VirtualClock, ["advance", "advance_to", "pending", "next_deadline"]),
        "## Observability\n",
        _class_section(
            MetricsRegistry,
            [
                "counter",
                "gauge",
                "histogram",
                "scope",
                "collect",
                "snapshot",
                "to_prometheus",
                "to_json",
            ],
        ),
        _class_section(MetricsSnapshot, ["as_dict", "as_table"]),
        _function_section(default_registry),
        _class_section(Counter, []),
        _class_section(Gauge, []),
        _class_section(Histogram, ["observe", "cumulative_buckets"]),
        _class_section(LatencyWindow, ["record", "percentile", "snapshot", "reset"]),
        _class_section(Tracer, ["start", "finish", "drain"]),
        _class_section(Trace, ["span", "anchored", "add_span", "span_names", "as_dict"]),
        _function_section(current_trace),
        _function_section(use_trace),
        _class_section(SlowQueryLog, ["observe", "bind_window", "records", "to_json"]),
        _function_section(render_prometheus),
        _function_section(parse_prometheus),
    ]
    body = "\n".join(section.rstrip() + "\n" for section in sections)
    return textwrap.dedent(body).rstrip() + "\n"


def main(argv: list[str]) -> int:
    target = ROOT / "docs" / "api.md"
    content = build()
    if "--check" in argv:
        current = target.read_text() if target.exists() else ""
        if current != content:
            print(
                "docs/api.md is stale — regenerate with "
                "`PYTHONPATH=src python docs/generate_api.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    target.write_text(content)
    print(f"wrote {target} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
