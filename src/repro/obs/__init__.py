"""Unified observability: metrics registry, per-query tracing, slow-query log.

The layer every other subsystem publishes into — see
[docs/observability.md](../../../docs/observability.md) for the operator
guide (metric catalog, life-of-a-request span diagram, slow-query
runbook, Prometheus scrape example).

* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  get-or-create :class:`MetricsRegistry`; :class:`MetricsSnapshot` is
  the read-only readout of one scope that every ``stats()`` returns;
  :class:`LatencyWindow` is the histogram's recent-percentile backend.
* :mod:`repro.obs.tracing` — head-sampled per-query span trees carried
  across threads via :func:`current_trace` / :func:`use_trace`.
* :mod:`repro.obs.slowlog` — bounded ring of outlier requests with
  their span trees and query knobs.
* :mod:`repro.obs.export` — Prometheus text-format rendering plus the
  grammar-checking parser CI validates expositions with.
"""

from repro.obs.export import PromSample, parse_prometheus, render_prometheus
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LatencyWindow,
    MetricsRegistry,
    MetricsSnapshot,
    WindowSnapshot,
    default_registry,
)
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord
from repro.obs.tracing import Span, Trace, Tracer, current_trace, use_trace

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyWindow",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PromSample",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "Trace",
    "Tracer",
    "WindowSnapshot",
    "current_trace",
    "default_registry",
    "parse_prometheus",
    "render_prometheus",
    "use_trace",
]
