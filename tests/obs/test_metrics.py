"""Tests for the metrics registry: instruments, the latency ring, exporters."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs.export import parse_prometheus
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LatencyWindow,
    MetricsRegistry,
    MetricsSnapshot,
    default_registry,
)


class TestLatencyWindowRing:
    """The bounded ring: wrap-around, partial fill, NaN, snapshot, reset."""

    def test_nan_before_first_sample(self):
        window = LatencyWindow(16)
        assert math.isnan(window.percentile(50.0))
        assert math.isnan(window.p50)
        assert math.isnan(window.p99)
        assert math.isnan(window.mean)
        snap = window.snapshot()
        assert snap.count == 0
        for value in (snap.mean, snap.p50, snap.p90, snap.p99):
            assert math.isnan(value)

    def test_partial_fill_percentiles(self):
        window = LatencyWindow(100)
        samples = [3.0, 1.0, 4.0, 1.5, 9.0]
        for s in samples:
            window.record(s)
        assert window.count == 5
        assert window.percentile(50.0) == pytest.approx(np.percentile(samples, 50))
        assert window.mean == pytest.approx(np.mean(samples))

    def test_wrap_around_evicts_oldest(self):
        window = LatencyWindow(8)
        for i in range(20):
            window.record(float(i))
        # Lifetime count keeps growing; the retained window holds the
        # newest `capacity` samples (12..19), the rest are evicted.
        assert window.count == 20
        assert window.capacity == 8
        retained = np.arange(12.0, 20.0)
        assert window.percentile(0.0) == pytest.approx(12.0)
        assert window.percentile(100.0) == pytest.approx(19.0)
        assert window.percentile(50.0) == pytest.approx(np.percentile(retained, 50))
        assert window.mean == pytest.approx(retained.mean())

    def test_wrapped_vs_partial_same_samples(self):
        """A wrapped window and a fresh window over the same values agree."""
        wrapped = LatencyWindow(4)
        for s in [100.0, 200.0, 1.0, 2.0, 3.0, 4.0]:  # first two evicted
            wrapped.record(s)
        fresh = LatencyWindow(16)
        for s in [1.0, 2.0, 3.0, 4.0]:
            fresh.record(s)
        for p in (0.0, 25.0, 50.0, 99.0):
            assert wrapped.percentile(p) == pytest.approx(fresh.percentile(p))

    def test_snapshot_matches_percentile_calls(self):
        window = LatencyWindow(64)
        rng = np.random.default_rng(0)
        for s in rng.exponential(5.0, size=50):
            window.record(float(s))
        snap = window.snapshot()
        assert snap.count == 50
        assert snap.p50 == pytest.approx(window.percentile(50.0))
        assert snap.p90 == pytest.approx(window.percentile(90.0))
        assert snap.p99 == pytest.approx(window.percentile(99.0))
        assert snap.mean == pytest.approx(window.mean)
        assert set(snap.as_dict()) == {"count", "mean", "p50", "p90", "p99"}

    def test_reset_forgets_everything(self):
        window = LatencyWindow(8)
        for s in (1.0, 2.0, 3.0):
            window.record(s)
        window.reset()
        assert window.count == 0
        assert math.isnan(window.p50)
        window.record(7.0)  # usable after reset
        assert window.p50 == pytest.approx(7.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LatencyWindow(0)


class TestInstruments:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_histogram_buckets_strictly_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("bad2", buckets=())

    def test_histogram_observe_and_cumulative(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        cumulative = hist.cumulative_buckets()
        assert cumulative == [(1.0, 1), (10.0, 2), (100.0, 3), (float("inf"), 4)]
        # the exact-window view agrees with the raw samples
        assert hist.percentile(50.0) == pytest.approx(
            np.percentile([0.5, 5.0, 50.0, 500.0], 50)
        )

    def test_histogram_boundary_goes_to_lower_bucket(self):
        hist = MetricsRegistry().histogram("edge", buckets=(1.0, 10.0))
        hist.observe(1.0)  # le="1.0" admits exactly 1.0
        assert hist.cumulative_buckets()[0] == (1.0, 1)

    def test_default_buckets_are_ms_scale(self):
        assert DEFAULT_MS_BUCKETS[0] < 1.0 < DEFAULT_MS_BUCKETS[-1]
        assert list(DEFAULT_MS_BUCKETS) == sorted(DEFAULT_MS_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x", "help")
        b = registry.counter("x")
        assert a is b
        assert len(registry) == 1

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labels={"instance": "a"})
        b = registry.counter("x", labels={"instance": "b"})
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert registry.total("x") == 5.0
        assert registry.value("x", {"instance": "a"}) == 2.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labels={"a": "1", "b": "2"})
        b = registry.counter("x", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_scope_sequences_per_prefix(self):
        registry = MetricsRegistry()
        assert registry.scope("serving") == {"instance": "serving0"}
        assert registry.scope("serving") == {"instance": "serving1"}
        assert registry.scope("engine") == {"instance": "engine0"}

    def test_value_errors(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.value("missing")
        registry.histogram("h")
        with pytest.raises(TypeError):
            registry.value("h")

    def test_total_of_absent_name_is_zero(self):
        assert MetricsRegistry().total("nope") == 0.0

    def test_default_registry_is_process_global(self):
        assert default_registry() is default_registry()

    def test_collect_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a")
        names = [i.name for i in registry.collect()]
        assert names == ["a", "b"]
        assert isinstance(registry.get("a"), Counter)
        assert isinstance(registry.get("b"), Gauge)
        assert registry.get("zzz") is None


class TestSnapshot:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        scope = {"instance": "engine0"}
        registry.counter("engine_batches_served", labels=scope).inc(3)
        registry.gauge("engine_qps", labels=scope).set(12.5)
        for shard in ("0", "1"):
            registry.gauge("engine_shard_nlive", labels={**scope, "shard": shard}).set(
                10 + int(shard)
            )
        registry.histogram("engine_run_ms", labels=scope).observe(1.0)
        registry.counter("engine_batches_served", labels={"instance": "engine1"}).inc()
        registry.counter("tree_nodes_visited").inc(99)
        return registry

    def test_holds_the_scope_counters_and_gauges_only(self):
        snap = self._registry().snapshot({"instance": "engine0"})
        assert isinstance(snap, MetricsSnapshot)
        assert snap.as_dict() == {
            "engine_batches_served": 3.0,
            "engine_qps": 12.5,
            'engine_shard_nlive{shard="0"}': 10.0,
            'engine_shard_nlive{shard="1"}': 11.0,
        }

    def test_no_scope_reads_every_series(self):
        snap = self._registry().snapshot()
        assert snap["tree_nodes_visited"] == 99.0
        assert snap['engine_batches_served{instance="engine1"}'] == 1.0
        assert "engine_run_ms" not in snap and len(snap) == 6

    def test_plain_names_read_as_attributes(self):
        snap = self._registry().snapshot({"instance": "engine0"})
        assert snap.engine_qps == snap["engine_qps"] == 12.5
        with pytest.raises(AttributeError, match="engine_nope"):
            snap.engine_nope
        with pytest.raises(KeyError):
            snap["engine_nope"]

    def test_read_only(self):
        registry = self._registry()
        snap = registry.snapshot({"instance": "engine0"})
        with pytest.raises(AttributeError):
            snap.engine_qps = 0.0
        with pytest.raises(TypeError):
            snap["engine_qps"] = 0.0
        snap.as_dict()["engine_qps"] = 0.0
        registry.gauge("engine_qps", labels={"instance": "engine0"}).set(1.0)
        assert snap.engine_qps == 12.5  # a readout, not a live view

    def test_table_has_one_row_per_series(self):
        snap = self._registry().snapshot({"instance": "engine0"})
        lines = snap.as_table("Engine").splitlines()
        assert lines[0] == "== Engine =="
        rows = lines[3:]
        assert [row.split()[0] for row in rows] == list(snap)
        assert rows[0].split()[1] == "3"  # integral values print as ints


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests_served", "Requests answered").inc(7)
        registry.gauge("queue_depth", "Pending", {"instance": "serving0"}).set(3)
        hist = registry.histogram("latency_ms", "Latency", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(4.2)
        return registry

    def test_prometheus_round_trip(self):
        registry = self._populated()
        text = registry.to_prometheus()
        samples = parse_prometheus(text)
        by_name = {(s.name, tuple(sorted(s.labels.items()))): s.value for s in samples}
        assert by_name[("requests_served", ())] == 7.0
        assert by_name[("queue_depth", (("instance", "serving0"),))] == 3.0
        assert by_name[("latency_ms_count", ())] == 2.0
        assert by_name[("latency_ms_bucket", (("le", "+Inf"),))] == 2.0

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("x", labels={"spec": 'Knn(k=10, c="a\\b\n")'}).inc()
        samples = parse_prometheus(registry.to_prometheus())
        assert samples[0].labels["spec"] == 'Knn(k=10, c="a\\b\n")'

    def test_json_layout(self):
        registry = self._populated()
        payload = registry.to_json()
        assert set(payload) == {"counters", "gauges", "histograms"}
        counter = payload["counters"][0]
        assert counter["name"] == "requests_served"
        assert counter["value"] == 7.0
        hist = payload["histograms"][0]
        assert hist["count"] == 2
        assert hist["buckets"]["+Inf"] == 2
        assert hist["window"]["count"] == 2.0

    def test_json_is_serialisable(self):
        import json

        json.dumps(self._populated().to_json())
