"""Tests for the telemetry substrate: metrics registry, span tracing, export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import metrics, snapshot_all, trace


@pytest.fixture
def registry():
    return metrics.MetricsRegistry()


class TestMetricsRegistry:
    def test_counters_accumulate(self, registry):
        registry.inc("a")
        registry.inc("a", 4)
        registry.inc("b", 2)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 5, "b": 2}

    def test_gauges_last_write_wins(self, registry):
        registry.gauge("depth", 3.0)
        registry.gauge("depth", 7.5)
        assert registry.snapshot()["gauges"] == {"depth": 7.5}

    def test_observations_summarise_count_total_min_max(self, registry):
        for seconds in (0.5, 0.1, 0.9):
            registry.observe("op.seconds", seconds)
        summary = registry.snapshot()["observations"]["op.seconds"]
        assert summary["count"] == 3
        assert summary["total_s"] == pytest.approx(1.5)
        assert summary["min_s"] == pytest.approx(0.1)
        assert summary["max_s"] == pytest.approx(0.9)

    def test_record_batch_counts_calls_and_elements(self, registry):
        registry.record_batch("native", "multiply_batch", 256)
        registry.record_batch("native", "multiply_batch", 128)
        counters = registry.snapshot()["counters"]
        assert counters["backend.native.multiply_batch.calls"] == 2
        assert counters["backend.native.multiply_batch.elements"] == 384

    def test_timed_records_an_observation_and_exposes_seconds(self, registry):
        with registry.timed("work") as timer:
            pass
        assert timer.seconds >= 0.0
        assert registry.snapshot()["observations"]["work"]["count"] == 1

    def test_merge_adds_counters_and_observations(self, registry):
        other = metrics.MetricsRegistry()
        registry.inc("x", 1)
        registry.observe("t", 0.2)
        other.inc("x", 2)
        other.inc("y", 3)
        other.observe("t", 0.4)
        other.gauge("g", 9.0)
        registry.merge(other.snapshot())
        snap = registry.snapshot()
        assert snap["counters"] == {"x": 3, "y": 3}
        assert snap["gauges"] == {"g": 9.0}
        merged = snap["observations"]["t"]
        assert merged["count"] == 2
        assert merged["total_s"] == pytest.approx(0.6)
        assert merged["min_s"] == pytest.approx(0.2)
        assert merged["max_s"] == pytest.approx(0.4)

    def test_run_isolated_records_into_a_fresh_registry(self, registry):
        def work(count):
            metrics.REGISTRY.inc("inner", count)
            return count

        previous = metrics.set_registry(registry)
        try:
            registry.inc("outer")
            result, snapshot = metrics.run_isolated(work, 3)
            assert metrics.REGISTRY is registry  # restored
            metrics.set_registry(metrics.NullRegistry())
            bare = metrics.run_isolated(work, 5)
        finally:
            metrics.set_registry(previous)
        assert result == 3 and snapshot["counters"] == {"inner": 3}
        assert registry.snapshot()["counters"] == {"outer": 1}
        assert bare == (5, None)

    def test_run_isolated_restores_the_registry_when_the_function_raises(self, registry):
        def fail():
            metrics.REGISTRY.inc("inner")
            raise RuntimeError("shard failed")

        previous = metrics.set_registry(registry)
        try:
            with pytest.raises(RuntimeError, match="shard failed"):
                metrics.run_isolated(fail)
            assert metrics.REGISTRY is registry
        finally:
            metrics.set_registry(previous)
        assert registry.snapshot()["counters"] == {}

    def test_merge_of_none_and_empty_is_a_no_op(self, registry):
        registry.inc("x")
        registry.merge(None)
        registry.merge({})
        assert registry.snapshot()["counters"] == {"x": 1}

    def test_observations_carry_bucket_histograms(self, registry):
        registry.observe("t", 0.0025)
        registry.observe("t", 0.0035)
        registry.observe("t", 300.0)
        summary = registry.snapshot()["observations"]["t"]
        buckets = summary["buckets"]
        assert len(buckets) == len(metrics.HISTOGRAM_BOUNDS) + 1
        assert sum(buckets) == summary["count"] == 3
        # 0.0025 and 0.0035 share the (2^-10, 2^-8] axis cell; 300 lands higher.
        assert max(buckets) == 2

    def test_overflow_bucket_catches_values_beyond_the_axis(self, registry):
        registry.observe("t", metrics.HISTOGRAM_BOUNDS[-1] * 4)
        buckets = registry.snapshot()["observations"]["t"]["buckets"]
        assert buckets[-1] == 1 and sum(buckets) == 1

    def test_merged_histograms_equal_serial_ones(self, registry):
        """The serving-layer invariant: per-worker snapshots folded into the
        parent produce exactly the histogram a single serial registry sees."""
        import random

        rng = random.Random(7)
        values = [rng.uniform(1e-6, 400.0) for _ in range(500)]
        serial = metrics.MetricsRegistry()
        shards = [metrics.MetricsRegistry() for _ in range(4)]
        for index, value in enumerate(values):
            serial.observe("lat", value)
            shards[index % 4].observe("lat", value)
        for shard in shards:
            registry.merge(shard.snapshot())
        merged = registry.snapshot()["observations"]["lat"]
        expected = serial.snapshot()["observations"]["lat"]
        assert merged["buckets"] == expected["buckets"]
        assert merged["count"] == expected["count"]
        assert merged["min_s"] == expected["min_s"]
        assert merged["max_s"] == expected["max_s"]
        assert merged["total_s"] == pytest.approx(expected["total_s"])
        for q in (0.5, 0.95, 0.99):
            assert metrics.summary_quantile(merged, q) == pytest.approx(
                metrics.summary_quantile(expected, q)
            )

    def test_summary_quantiles_track_exact_percentiles(self, registry):
        import random

        rng = random.Random(11)
        values = sorted(rng.uniform(0.0005, 2.0) for _ in range(1000))
        for value in values:
            registry.observe("lat", value)
        summary = registry.snapshot()["observations"]["lat"]
        estimates = metrics.summary_quantiles(summary)
        assert set(estimates) == {"p50", "p95", "p99"}
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            # log-spaced powers-of-two buckets: estimates land within one
            # bucket (a factor of 2) of the exact percentile
            assert exact / 2 <= estimates[name] <= exact * 2
        assert metrics.summary_quantile(summary, 1.0) == summary["max_s"]
        assert metrics.summary_quantile(summary, 0.0) >= summary["min_s"]

    def test_summary_quantile_edge_cases(self, registry):
        assert metrics.summary_quantile({"count": 0}, 0.5) is None
        with pytest.raises(ValueError):
            registry.observe("t", 0.1)
            metrics.summary_quantile(registry.snapshot()["observations"]["t"], 1.5)

    def test_reset_clears_everything(self, registry):
        registry.inc("x")
        registry.gauge("g", 1.0)
        registry.observe("t", 0.1)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "observations": {}}

    def test_thread_safety_of_concurrent_increments(self, registry):
        def hammer():
            for _ in range(1000):
                registry.inc("hits")
                registry.observe("t", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 8000
        assert snap["observations"]["t"]["count"] == 8000


class TestNullRegistry:
    def test_is_disabled_and_records_nothing(self):
        null = metrics.NullRegistry()
        assert null.enabled is False
        null.inc("x")
        null.gauge("g", 1.0)
        null.observe("t", 0.1)
        null.record_batch("native", "multiply_batch", 64)
        assert null.snapshot() == {"counters": {}, "gauges": {}, "observations": {}}

    def test_timed_still_measures_elapsed_seconds(self):
        with metrics.NullRegistry().timed("work") as timer:
            pass
        assert timer.seconds >= 0.0


class TestRegistrySwitching:
    def test_set_registry_returns_previous_and_redirects_module_timed(self):
        local = metrics.MetricsRegistry()
        previous = metrics.set_registry(local)
        try:
            with metrics.timed("swapped"):
                pass
            assert "swapped" in local.snapshot()["observations"]
        finally:
            metrics.set_registry(previous)

    def test_disable_then_enable_roundtrip(self):
        previous = metrics.REGISTRY
        try:
            metrics.disable()
            assert not metrics.REGISTRY.enabled
            live = metrics.enable()
            assert live.enabled and metrics.REGISTRY is live
        finally:
            metrics.set_registry(previous)


class TestTracer:
    def test_span_records_complete_event_with_args(self):
        tracer = trace.Tracer()
        with tracer.span("ladder.step", m=163, backend="native"):
            pass
        (event,) = tracer.events()
        assert event["name"] == "ladder.step"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert event["args"] == {"m": 163, "backend": "native"}

    def test_null_tracer_is_disabled_and_collects_nothing(self):
        null = trace.NullTracer()
        assert null.enabled is False
        with null.span("anything", key="value"):
            pass
        assert null.events() == []

    def test_module_span_respects_installed_tracer(self):
        tracer = trace.Tracer()
        previous = trace.set_tracer(tracer)
        try:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        finally:
            trace.set_tracer(previous)
        names = [event["name"] for event in tracer.events()]
        assert names == ["inner", "outer"]  # recorded on exit, inner first

    def test_chrome_trace_shape(self):
        tracer = trace.Tracer()
        with tracer.span("x"):
            pass
        document = tracer.chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == 1

    def test_write_chrome_trace_roundtrips_as_json(self, tmp_path):
        tracer = trace.Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b", n=2):
            pass
        path = tmp_path / "trace.json"
        count = trace.write_chrome_trace(str(path), tracer)
        assert count == 2
        document = json.loads(path.read_text())
        assert {event["name"] for event in document["traceEvents"]} == {"a", "b"}

    def test_write_chrome_trace_with_null_tracer_writes_empty_buffer(self, tmp_path):
        path = tmp_path / "trace.json"
        previous = trace.set_tracer(trace.NullTracer())
        try:
            assert trace.write_chrome_trace(str(path)) == 0
        finally:
            trace.set_tracer(previous)
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_enable_installs_fresh_collecting_tracer(self):
        previous = trace.TRACER
        try:
            tracer = trace.enable()
            assert trace.TRACER is tracer and tracer.enabled
            trace.disable()
            assert not trace.TRACER.enabled
        finally:
            trace.set_tracer(previous)

    def test_aggregate_spans_filters_by_prefix_and_sums(self):
        events = [
            {"name": "ir.pass.00.mul", "dur": 1000.0},
            {"name": "ir.pass.00.mul", "dur": 3000.0},
            {"name": "ir.pass.01.linear", "dur": 500.0},
            {"name": "ladder.pack", "dur": 9000.0},
        ]
        summary = trace.aggregate_spans(events, prefix="ir.pass.")
        assert set(summary) == {"ir.pass.00.mul", "ir.pass.01.linear"}
        assert summary["ir.pass.00.mul"]["count"] == 2
        assert summary["ir.pass.00.mul"]["total_s"] == pytest.approx(0.004)


class TestSnapshotAll:
    def test_includes_metrics_and_named_caches(self):
        local = metrics.MetricsRegistry()
        local.inc("probe", 7)
        previous = metrics.set_registry(local)
        try:
            snapshot = snapshot_all()
        finally:
            metrics.set_registry(previous)
        assert snapshot["metrics"]["counters"]["probe"] == 7
        # The process has imported the backends by now; the registered
        # named caches all expose the same hit/miss/eviction shape.
        assert "multipliers" in snapshot["caches"]
        for info in snapshot["caches"].values():
            assert {"hits", "misses", "evictions", "currsize", "maxsize"} <= set(info)
