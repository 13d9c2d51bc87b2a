"""The metrics registry: counters, gauges and ms-scale histograms.

One registry is the single source of truth for every number the stack
publishes: the async serving front-end, the sharded engine, PM-LSH's
probe, the cache and the lifecycle subsystem all write into
:class:`MetricsRegistry` instruments.  What a
component's ``stats()`` returns is :meth:`MetricsRegistry.snapshot` of
its own label scope — a :class:`MetricsSnapshot` read straight off the
instruments, so the table a demo prints and the series a scraper reads
are the same numbers under the same names.

Instruments are get-or-create by ``(name, labels)``:

>>> from repro.obs import MetricsRegistry
>>> registry = MetricsRegistry()
>>> registry.counter("requests_served").inc(3)
>>> registry.counter("requests_served").value
3.0
>>> registry.gauge("queue_depth", shard="0").set(7)
>>> registry.histogram("request_latency_ms").observe(1.4)

Components default to the **process-global registry**
(:func:`default_registry`) and accept an injectable instance — tests and
multi-tenant callers pass their own so series never alias.  Registries
hand out per-component instance labels (:meth:`MetricsRegistry.scope`)
so two servers sharing one registry keep distinct series.

Export: :meth:`MetricsRegistry.to_prometheus` (text exposition format)
and :meth:`MetricsRegistry.to_json` (one snapshot dict); see
:mod:`repro.obs.export` for the grammar-checking parser the CI smoke
step uses.

Thread-safety: increments are plain float adds guarded by the GIL — the
library's single-writer conventions (one caller thread per index, one
serving executor worker) make per-instrument locking unnecessary, and
distinct shard threads always write distinct label sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

#: Fixed ms-scale histogram buckets (upper bounds; +Inf is implicit).
#: Chosen to straddle the stack's operating range: sub-ms cache hits,
#: single-digit-ms batched queries, multi-second compactions.
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

Labels = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Dict[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class WindowSnapshot:
    """One consistent percentile readout of a :class:`LatencyWindow`.

    Produced by :meth:`LatencyWindow.snapshot` from a **single sort** of
    the retained samples — count, mean, p50, p90 and p99 all describe
    the same instant, unlike three separate ``percentile()`` calls.
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": float(self.mean),
            "p50": float(self.p50),
            "p90": float(self.p90),
            "p99": float(self.p99),
        }


class LatencyWindow:
    """Bounded ring buffer of per-request latencies with percentile readout.

    Keeps the most recent ``capacity`` samples (milliseconds) in a fixed
    NumPy buffer — recording is O(1), a percentile readout sorts only the
    filled portion.  Serving layers record every request into one window
    and publish ``p50`` / ``p99`` as gauges; an empty window reads as NaN
    so stats stay printable before the first request.

    :meth:`snapshot` reads count/mean/p50/p90/p99 out of **one** sort;
    prefer it whenever more than one percentile is needed (the serving
    gauges and the slow-query log both do).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer = np.empty(int(capacity), dtype=np.float64)
        self._cursor = 0
        self._count = 0  # lifetime samples (filled = min(count, capacity))

    @property
    def capacity(self) -> int:
        return int(self._buffer.size)

    @property
    def count(self) -> int:
        """Lifetime number of samples recorded (not capped by capacity)."""
        return self._count

    def record(self, latency_ms: float) -> None:
        """Add one latency sample, evicting the oldest when full."""
        self._buffer[self._cursor] = float(latency_ms)
        self._cursor = (self._cursor + 1) % self._buffer.size
        self._count += 1

    def reset(self) -> None:
        """Forget every retained sample (the lifetime count restarts too)."""
        self._cursor = 0
        self._count = 0

    def _filled(self) -> np.ndarray:
        return self._buffer[: min(self._count, self._buffer.size)]

    def percentile(self, p: float) -> float:
        """The p-th percentile (0–100) of the retained window; NaN if empty."""
        filled = self._filled()
        if filled.size == 0:
            return float("nan")
        return float(np.percentile(filled, p))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        filled = self._filled()
        return float(filled.mean()) if filled.size else float("nan")

    def snapshot(self) -> WindowSnapshot:
        """Count/mean/p50/p90/p99 of the retained window from one sort.

        An empty window snapshots as count 0 with NaN everywhere, so the
        stats layers stay printable before the first request.
        """
        filled = self._filled()
        if filled.size == 0:
            nan = float("nan")
            return WindowSnapshot(count=0, mean=nan, p50=nan, p90=nan, p99=nan)
        ordered = np.sort(filled)
        p50, p90, p99 = np.percentile(ordered, [50.0, 90.0, 99.0])
        return WindowSnapshot(
            count=int(filled.size),
            mean=float(ordered.mean()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
        )


class _Instrument:
    """Common identity of one metric series: name, help text, labels."""

    kind = "untyped"

    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        self.name = name
        self.help = help
        self.labels = labels

    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class Counter(_Instrument):
    """Monotonically increasing count (requests served, nodes visited).

    ``reset()`` exists for re-fit semantics — an index rebuilt from
    scratch restarts its lifetime counters, the same way a process
    restart resets Prometheus counters.
    """

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot inc by {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge(_Instrument):
    """Point-in-time value (queue depth, live points, last-batch QPS)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, help: str, labels: Labels) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(_Instrument):
    """Latency distribution: cumulative ms buckets plus a recent window.

    Two backends in one instrument, because exporters and operators need
    different views:

    * fixed **cumulative buckets** (Prometheus exposition: ``_bucket``
      series with ``le`` labels, ``_sum``, ``_count``) — lifetime, cheap
      to merge across processes;
    * a :class:`LatencyWindow` ring of the most recent samples — exact
      percentiles over the *recent* traffic, which is what the serving
      latency gauges and the slow-query log's rolling-p99 trigger read.
    """

    kind = "histogram"

    __slots__ = ("buckets", "bucket_counts", "sum", "count", "window")

    def __init__(
        self,
        name: str,
        help: str,
        labels: Labels,
        buckets: Iterable[float] = DEFAULT_MS_BUCKETS,
        window_capacity: int = 4096,
    ) -> None:
        super().__init__(name, help, labels)
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b >= a for a, b in zip(edges[1:], edges)):
            raise ValueError(f"histogram {name}: buckets must strictly increase")
        self.buckets = edges
        self.bucket_counts = [0] * len(edges)  # non-cumulative per-bucket tallies
        self.sum = 0.0
        self.count = 0
        self.window = LatencyWindow(window_capacity)

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        self.window.record(value)
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first bucket whose upper bound admits the value
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        if lo < len(self.buckets):
            self.bucket_counts[lo] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for edge, tally in zip(self.buckets, self.bucket_counts):
            running += tally
            out.append((edge, running))
        out.append((float("inf"), self.count))
        return out

    def percentile(self, p: float) -> float:
        """Exact percentile over the recent window (NaN when empty)."""
        return self.window.percentile(p)

    def snapshot(self) -> WindowSnapshot:
        """One-sort percentile snapshot of the recent window."""
        return self.window.snapshot()


class MetricsSnapshot(Mapping[str, float]):
    """A read-only readout of the counter and gauge series in one scope.

    Built by :meth:`MetricsRegistry.snapshot`.  Keys are metric names; a
    series carrying labels beyond the scope is keyed in the exposition's
    syntax, e.g. ``engine_shard_nlive{shard="0"}``.  Values are the
    instruments' floats at the moment of the snapshot.  Plain names also
    read as attributes (``stats.requests_served``).
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float]) -> None:
        object.__setattr__(self, "_values", dict(values))

    def __getitem__(self, key: str) -> float:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getattr__(self, name: str) -> float:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(f"no series {name!r} in this snapshot") from None

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MetricsSnapshot is read-only")

    def __repr__(self) -> str:
        return f"MetricsSnapshot({self._values!r})"

    def as_dict(self) -> Dict[str, float]:
        """A plain ``{series: value}`` copy."""
        return dict(self._values)

    def as_table(self, title: str = "Metrics") -> str:
        """One row per series, in the registry's sorted order."""
        from repro.evaluation.tables import format_table

        rows = [
            [key, int(value) if float(value).is_integer() else value]
            for key, value in self._values.items()
        ]
        return format_table(title, ["Series", "Value"], rows)


class MetricsRegistry:
    """Process- or component-scoped collection of metric instruments.

    Instruments are created on first use and returned on every later
    call with the same ``(name, labels)`` — holding the returned object
    and calling ``inc()``/``set()``/``observe()`` on it directly is the
    hot-path idiom (no per-event dictionary lookups).  Re-registering a
    name as a different instrument kind raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], _Instrument] = {}
        self._scopes: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def scope(self, prefix: str) -> Dict[str, str]:
        """A fresh instance label set (``{"instance": "<prefix><seq>"}``).

        Components that keep per-instance views over a shared registry
        (servers, engines) take one scope at construction so their
        series never alias another instance's; the sequence is
        deterministic per registry (construction order).
        """
        seq = self._scopes.get(prefix, 0)
        self._scopes[prefix] = seq + 1
        return {"instance": f"{prefix}{seq}"}

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        key = (str(name), _freeze_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(key[0], help, key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {cls.kind}"
            )
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Dict[str, str] | None = None
    ) -> Counter:
        """Get-or-create the counter ``name`` with the given label set."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Dict[str, str] | None = None
    ) -> Gauge:
        """Get-or-create the gauge ``name`` with the given label set."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Dict[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_MS_BUCKETS,
        window_capacity: int = 4096,
    ) -> Histogram:
        """Get-or-create the histogram ``name`` with the given label set."""
        return self._get_or_create(
            Histogram,
            name,
            help,
            labels,
            buckets=buckets,
            window_capacity=window_capacity,
        )

    def get(
        self, name: str, labels: Dict[str, str] | None = None
    ) -> Optional[_Instrument]:
        """The instrument at ``(name, labels)``, or ``None``."""
        return self._instruments.get((str(name), _freeze_labels(labels)))

    def collect(self) -> List[_Instrument]:
        """Every instrument, sorted by ``(name, labels)`` (deterministic)."""
        return [
            self._instruments[key] for key in sorted(self._instruments.keys())
        ]

    def value(self, name: str, labels: Dict[str, str] | None = None) -> float:
        """Convenience: the scalar value of a counter/gauge series.

        Raises ``KeyError`` for unknown series and ``TypeError`` for
        histograms (read ``.count``/``.sum``/``snapshot()`` instead).
        """
        instrument = self.get(name, labels)
        if instrument is None:
            raise KeyError(f"no metric {name!r} with labels {labels!r}")
        if isinstance(instrument, Histogram):
            raise TypeError(f"{name!r} is a histogram; use get() and snapshot()")
        return float(instrument.value)

    def snapshot(self, labels: Dict[str, str] | None = None) -> MetricsSnapshot:
        """Every counter and gauge whose label set includes *labels*.

        Histograms are left out (read them through :meth:`get`).  Labels
        outside the scope become part of the key, in exposition syntax.
        """
        from repro.obs.export import _render_labels

        scope = set(_freeze_labels(labels))
        values: Dict[str, float] = {}
        for instrument in self.collect():
            if isinstance(instrument, Histogram) or not scope <= set(instrument.labels):
                continue
            extra = dict(set(instrument.labels) - scope)
            values[instrument.name + _render_labels(extra)] = instrument.value
        return MetricsSnapshot(values)

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across every label set (0.0 if absent)."""
        return float(
            sum(
                instrument.value
                for (metric_name, _), instrument in self._instruments.items()
                if metric_name == name and not isinstance(instrument, Histogram)
            )
        )

    # -- exporters -----------------------------------------------------

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self)

    def to_json(self) -> Dict:
        """One JSON-serialisable snapshot of every series.

        Layout: ``{"counters": [...], "gauges": [...], "histograms":
        [...]}``; each series entry carries ``name``, ``labels`` and its
        value(s).  Counter/gauge values are the exact floats the
        instruments hold, as in :meth:`snapshot`.
        """
        out: Dict[str, List[Dict]] = {"counters": [], "gauges": [], "histograms": []}
        for instrument in self.collect():
            entry: Dict = {
                "name": instrument.name,
                "labels": instrument.label_dict(),
            }
            if isinstance(instrument, Histogram):
                entry["count"] = instrument.count
                entry["sum"] = instrument.sum
                entry["buckets"] = {
                    ("+Inf" if edge == float("inf") else repr(edge)): count
                    for edge, count in instrument.cumulative_buckets()
                }
                entry["window"] = instrument.snapshot().as_dict()
                out["histograms"].append(entry)
            elif isinstance(instrument, Counter):
                entry["value"] = instrument.value
                out["counters"].append(entry)
            else:
                entry["value"] = instrument.value
                out["gauges"].append(entry)
        return out


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry every component publishes into unless
    an injectable instance is passed to its constructor."""
    return _DEFAULT
