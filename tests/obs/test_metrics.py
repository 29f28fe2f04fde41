"""Metrics registry mechanics: instruments, snapshots, export."""

import json

import pytest

from repro import PropertyGraph, QueryEngine
from repro.obs.export import render_json, render_prometheus, render_table
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    EngineMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.as_dict() == {"type": "counter", "help": "help", "value": 5}

    def test_gauge_sets(self):
        gauge = Gauge("g", "help")
        gauge.set(7)
        gauge.set(3)
        assert gauge.as_dict()["value"] == 3

    def test_histogram_buckets_are_cumulative_in_snapshot(self):
        histogram = Histogram("h", "help", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        data = histogram.as_dict()
        assert data["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4]]
        assert data["count"] == 5
        assert data["sum"] == pytest.approx(56.05)

    def test_histogram_default_bounds_span_sub_ms_to_seconds(self):
        assert LATENCY_BUCKETS[0] < 0.001 < LATENCY_BUCKETS[-1]
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)

    def test_histogram_quantiles_interpolate_within_buckets(self):
        histogram = Histogram("h", "help", bounds=(0.1, 1.0, 10.0))
        for value in (0.5,) * 10:  # all ten land in the (0.1, 1.0] bucket
            histogram.observe(value)
        # rank interpolates linearly across the bucket's (0.1, 1.0] span
        assert histogram.quantile(0.5) == pytest.approx(0.55)
        assert histogram.quantile(0.99) == pytest.approx(0.991)
        assert 0.1 < histogram.quantile(0.01) <= 1.0

    def test_histogram_quantile_edge_cases(self):
        histogram = Histogram("h", "help", bounds=(0.1, 1.0))
        assert histogram.quantile(0.5) == 0.0  # empty
        histogram.observe(50.0)  # lands in +Inf
        assert histogram.quantile(0.99) == 1.0  # clamped to top finite bound
        low = Histogram("l", "help", bounds=(0.1, 1.0))
        low.observe(0.05)
        assert 0.0 < low.quantile(0.5) <= 0.1


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        assert registry.counter("c", "help") is first
        assert registry.histogram("h", "x") is registry.histogram("h", "x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c", "help")
        with pytest.raises(TypeError):
            registry.gauge("c", "help")
        with pytest.raises(TypeError):
            registry.histogram("c", "help")

    def test_snapshot_runs_collectors_and_sorts(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("z_last", "")
        registry.counter("a_first", "").inc()
        registry.add_collector(lambda: gauge.set(42))
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a_first", "z_last"]
        assert snapshot["z_last"]["value"] == 42

    def test_engine_metrics_builds_over_one_registry(self):
        bundle = EngineMetrics()
        snapshot = bundle.registry.snapshot()
        assert "repro_batches_total" in snapshot
        assert "repro_batch_seconds" in snapshot
        assert snapshot["repro_batch_seconds"]["type"] == "histogram"


class TestBatchCounters:
    """The counters behind the harness's ``rete.batch.net_per_raw``."""

    def test_one_committed_transaction(self):
        graph = PropertyGraph()
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        engine = QueryEngine(graph, batch_transactions=True, collect_metrics=True)
        view = engine.register("MATCH (p:Post) RETURN p, p.lang")
        with graph.transaction():
            # nets to 0 records: an ephemeral vertex and edge, and a
            # property set that round-trips
            ephemeral = graph.add_vertex(labels=["Post"])
            edge = graph.add_edge(ephemeral, post, "REPLY")
            graph.remove_edge(edge)
            graph.remove_vertex(ephemeral)
            graph.set_vertex_property(post, "lang", "de")
            graph.set_vertex_property(post, "lang", "en")
            # nets to 1 record: one surviving vertex
            survivor = graph.add_vertex(labels=["Post"])
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_batches_total"]["value"] == 1
        assert snapshot["repro_batch_raw_events_total"]["value"] == 7
        assert snapshot["repro_batch_net_records_total"]["value"] == 1
        assert view.multiset() == {(post, "en"): 1, (survivor, None): 1}


class TestExport:
    def snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_c", "a counter").inc(3)
        registry.gauge("repro_g", "a gauge").set(7)
        registry.histogram("repro_h", "a histogram", bounds=(0.5,)).observe(0.1)
        return registry.snapshot()

    def test_prometheus_text_format(self):
        text = render_prometheus(self.snapshot())
        lines = text.splitlines()
        assert "# HELP repro_c a counter" in lines
        assert "# TYPE repro_c counter" in lines
        assert "repro_c 3" in lines
        assert "repro_g 7" in lines
        assert 'repro_h_bucket{le="0.5"} 1' in lines
        assert 'repro_h_bucket{le="+Inf"} 1' in lines
        assert "repro_h_count 1" in lines
        assert text.endswith("\n")

    def test_json_round_trips(self):
        snapshot = self.snapshot()
        assert json.loads(render_json(snapshot)) == snapshot

    def test_table_lists_quantiles_for_histograms(self):
        text = render_table(self.snapshot())
        lines = text.splitlines()
        counter_line = next(l for l in lines if l.startswith("repro_c"))
        assert "counter" in counter_line and counter_line.endswith("3")
        histogram_line = next(l for l in lines if l.startswith("repro_h"))
        assert "count 1" in histogram_line
        assert "p50" in histogram_line and "p99" in histogram_line
        assert text.endswith("\n")
