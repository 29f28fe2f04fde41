"""Golden shapes of the introspection surfaces.

Pins the *structure* callers script against — profile columns,
``answer_stats`` keys, memory counters, the EXPLAIN live-stats section,
the shard-worker profile label, and the CLI observability metas — so a
refactor cannot silently change a shape dashboards and the README
examples rely on.
"""

import io
import json

from repro import PropertyGraph, QueryEngine
from repro.cli import main


def run_shell(script: str, *argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), stdin=io.StringIO(script), stdout=out)
    return status, out.getvalue()


def engine_with_traffic(**flags) -> QueryEngine:
    graph = PropertyGraph()
    engine = QueryEngine(graph, **flags)
    engine.register(
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
    )
    post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    comment = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(post, comment, "REPLY")
    return engine


class TestProfileShape:
    def test_header_columns_and_separator(self):
        engine = engine_with_traffic()
        lines = engine.views[0].profile().splitlines()
        header = lines[0]
        for column in (
            "node",
            "schema",
            "deltas",
            "rows",
            "rows/call",
            "batch fill",
            "memory",
            "cells",
        ):
            assert column in header
        assert set(lines[1]) == {"-"}
        assert len(lines) > 2  # at least one node line

    def test_shared_nodes_are_marked(self):
        engine = engine_with_traffic()
        profile = engine.views[0].profile()
        assert "(shared)" in profile

    def test_shard_view_profile_names_its_worker(self):
        graph = PropertyGraph()
        engine = QueryEngine(graph, workers=2)
        try:
            view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
            profile = view.profile()
            first, rest = profile.split("\n", 1)
            assert first == f"-- shard worker {view.worker_index} --"
            assert "node" in rest  # the worker-side profile table follows
        finally:
            engine.shutdown()


class TestAnswerStatsShape:
    def test_as_dict_keys_are_pinned(self):
        engine = engine_with_traffic()
        engine.evaluate("MATCH (p:Post) RETURN p")
        stats = engine.answer_stats().as_dict()
        assert list(stats) == [
            "queries",
            "answered",
            "exact",
            "residual",
            "root_hits",
            "subplan_hits",
            "fallbacks",
            "stale_declines",
            "memo_hits",
            "listing_answers",
            "residual_listing_answers",
        ]
        assert all(isinstance(value, int) for value in stats.values())
        assert stats["queries"] >= 1

    def test_catalog_gauges_carry_help_text(self):
        engine = engine_with_traffic(collect_metrics=True)
        query = "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
        engine.evaluate(query)
        engine.evaluate(query)
        engine.evaluate(query + " ORDER BY c DESC LIMIT 1")
        snapshot = engine.metrics_snapshot()
        for name, value in (
            ("repro_catalog_memo_hits", 1),
            ("repro_catalog_listing_answers", 2),
            ("repro_catalog_residual_listing_answers", 1),
        ):
            assert snapshot[name]["type"] == "gauge"
            assert snapshot[name]["value"] == value
            assert snapshot[name]["help"] != "View-catalog counter"  # not the fallback


class TestMemoryCounters:
    def test_view_and_engine_counters_are_nonnegative_ints(self):
        engine = engine_with_traffic()
        view = engine.views[0]
        for value in (
            view.memory_size(),
            view.memory_cells(),
            engine._incremental.memory_size(),
            engine._incremental.memory_cells(),
        ):
            assert isinstance(value, int)
            assert value >= 0
        assert view.memory_cells() >= view.memory_size()


class TestRegisterMetrics:
    def test_build_populate_split_and_rows_with_metrics_on(self):
        engine = engine_with_traffic(collect_metrics=True)
        engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        snapshot = engine.metrics_snapshot()
        for name in ("repro_register_build_seconds", "repro_register_populate_seconds"):
            assert snapshot[name]["type"] == "histogram"
            assert snapshot[name]["count"] == 2  # one observation per register
        rows = snapshot["repro_populate_rows_total"]
        assert rows["type"] == "counter"
        assert rows["value"] >= 1  # the second view replayed the loaded post

    def test_absent_with_metrics_off(self):
        engine = engine_with_traffic()
        assert engine.metrics_snapshot() is None


class TestListingMetrics:
    def test_listing_gauges_with_metrics_on(self):
        engine = engine_with_traffic(collect_metrics=True)
        view = engine.views[0]
        assert engine.metrics_snapshot()["repro_view_listing_rows"]["value"] == 0
        view.rows()  # first read: sorted from scratch
        graph = engine._incremental.graph
        post = graph.add_vertex(labels=["Post"], properties={"lang": "de"})
        graph.add_edge(post, graph.add_vertex(labels=["Comm"], properties={"lang": "de"}), "REPLY")
        view.rows()  # second read: the new row spliced in
        snapshot = engine.metrics_snapshot()
        for name, value in (
            ("repro_view_listing_splices_total", 1),
            ("repro_view_listing_rebuilds_total", 1),
            ("repro_view_listing_rows", 2),
        ):
            assert snapshot[name]["type"] == "gauge"
            assert snapshot[name]["value"] == value
        production = view.network.production
        assert (production.listing_splices, production.listing_rebuilds) == (1, 1)

    def test_row_counts_are_multiplicity_sums(self):
        engine = QueryEngine(PropertyGraph())
        engine.execute("CREATE (:Post {lang: 'en'}), (:Post {lang: 'en'})")
        view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        assert "rows=2)" in repr(view)
        assert view.network.production.listing_rows == 0  # repr does not sort


class TestExplainLiveStats:
    def test_section_present_with_metrics_on(self):
        engine = engine_with_traffic(collect_metrics=True)
        text = engine.explain("MATCH (p:Post) RETURN p")
        assert "== Live stats ==" in text
        assert "repro_batches_total = " in text
        assert "repro_views_live = 1" in text

    def test_section_absent_with_metrics_off(self):
        engine = engine_with_traffic()
        assert "== Live stats ==" not in engine.explain(
            "MATCH (p:Post) RETURN p"
        )


class TestCliObservability:
    SETUP = (
        ":register MATCH (p:Post) RETURN p.lang AS lang\n"
        "CREATE (:Post {lang: 'en'});\n"
    )

    def test_metrics_requires_the_flag(self):
        status, output = run_shell(self.SETUP + ":metrics\n")
        assert status == 0
        assert "metrics collection is off" in output

    def test_metrics_prometheus_and_json(self):
        status, output = run_shell(
            self.SETUP + ":metrics\n", "--metrics"
        )
        assert status == 0
        assert "# TYPE repro_events_total counter" in output
        assert "repro_views_live 1" in output
        status, output = run_shell(
            self.SETUP + ":metrics json\n", "--metrics"
        )
        assert status == 0
        payload = json.loads(output[output.index("{"):])
        assert payload["repro_events_total"]["value"] >= 1

    def test_metrics_table_shows_quantiles(self):
        status, output = run_shell(
            self.SETUP + ":metrics table\n", "--metrics"
        )
        assert status == 0
        assert "repro_events_total" in output
        latency_line = next(
            line
            for line in output.splitlines()
            if line.startswith("repro_event_dispatch_seconds")
        )
        assert "p50" in latency_line and "p99" in latency_line
        status, output = run_shell(self.SETUP + ":metrics bogus\n", "--metrics")
        assert status == 0
        assert "usage: :metrics [json|table]" in output

    def test_trace_toggle_and_render(self):
        script = (
            ":trace\n"
            ":trace on\n" + self.SETUP + ":trace\n:trace off\n"
        )
        status, output = run_shell(script)
        assert status == 0
        assert "tracing is off; no trace recorded yet" in output
        assert "batch tracing on" in output
        assert "emit " in output  # the rendered span tree
        assert "batch tracing off" in output

    def test_costs_lists_views_and_total(self):
        status, output = run_shell(self.SETUP + ":costs\n")
        assert status == 0
        assert "maintenance cost per view" in output
        assert "[0]" in output and "MATCH (p:Post)" in output
        assert "total" in output

    def test_register_line_counts_rows_with_multiplicity(self):
        status, output = run_shell(
            "CREATE (:Post {lang: 'en'}), (:Post {lang: 'en'});\n"
            ":register MATCH (p:Post) RETURN p.lang AS lang\n"
            ":views\n"
        )
        assert status == 0
        assert "registered view [0] (2 rows)\n" in output
        assert "(1 distinct rows)" in output

    def test_costs_without_views(self):
        status, output = run_shell(":costs\n")
        assert status == 0
        assert "no views registered" in output

    def test_shards_reports_in_process_engine(self):
        status, output = run_shell(self.SETUP + ":shards\n")
        assert status == 0
        assert "0 workers, 1 views" in output
        assert "in-process engine:" in output

    def test_help_lists_the_new_metas(self):
        status, output = run_shell(":help\n")
        assert status == 0
        for meta in (":metrics", ":trace", ":costs"):
            assert meta in output
