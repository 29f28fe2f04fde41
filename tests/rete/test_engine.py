"""View maintenance tests: every update type against every operator shape.

Each test mutates the graph and asserts the view equals the
full-recomputation oracle — the paper's IVM property — and, where the
*content* of the change matters, also asserts exact rows.
"""

import inspect

import pytest

from repro import PropertyGraph, QueryEngine, UnsupportedForIncrementalError
from repro.graph.values import ListValue, PathValue
from repro.rete.engine import IncrementalEngine
from repro.rete.sharing import SharingLayer

from ..conftest import PAPER_QUERY, assert_view_matches_oracle


@pytest.fixture
def graph():
    return PropertyGraph()


@pytest.fixture
def engine(graph):
    return QueryEngine(graph)


class TestRegistration:
    def test_view_populates_from_existing_data(self, graph, engine):
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        view = engine.register("MATCH (p:Post) RETURN p.lang AS l")
        assert view.rows() == [("en",)]

    def test_ordering_queries_rejected(self, engine):
        with pytest.raises(UnsupportedForIncrementalError):
            engine.register("MATCH (n:Post) RETURN n ORDER BY n")
        with pytest.raises(UnsupportedForIncrementalError):
            engine.register("MATCH (n:Post) RETURN n LIMIT 3")

    def test_engine_takes_exactly_three_options(self):
        parameters = list(inspect.signature(QueryEngine.__init__).parameters)
        assert parameters == [
            "self", "graph", "batch_transactions", "collect_metrics", "trace_batches",
        ]  # fmt: skip

    @pytest.mark.parametrize("option", ["columnar_deltas", "detached_cache_size"])
    @pytest.mark.parametrize(
        "make",
        [QueryEngine, IncrementalEngine, SharingLayer],
        ids=["QueryEngine", "IncrementalEngine", "SharingLayer"],
    )
    def test_retired_options_are_rejected(self, graph, make, option):
        """Input nodes always emit column deltas and a dead subplan is
        dropped at once: neither behaviour has a switch left to set."""
        with pytest.raises(TypeError):
            make(graph, **{option: 0})

    def test_same_query_evaluates_one_shot(self, engine):
        # outside the fragment → still supported one-shot (paper's trade-off)
        assert engine.evaluate("MATCH (n:Post) RETURN n LIMIT 3").rows() == []

    def test_columns(self, graph, engine):
        view = engine.register("MATCH (p:Post) RETURN p, p.lang AS l")
        assert view.columns == ("p", "l")

    def test_multiple_views_one_graph(self, graph, engine):
        first = engine.register("MATCH (p:Post) RETURN p")
        second = engine.register("MATCH (c:Comm) RETURN c")
        post = graph.add_vertex(labels=["Post"])
        comment = graph.add_vertex(labels=["Comm"])
        assert first.rows() == [(post,)]
        assert second.rows() == [(comment,)]

    def test_one_in_process_engine_has_no_workers_option(self, graph):
        """Retired options are gone, not ignored: ⋈* has one semantics,
        and a read is served from views unless ``use_views=False``."""
        for name, value in (
            ("workers", 2),
            ("transitive_mode", "trails"),
            ("answer_from_views", True),
        ):
            with pytest.raises(TypeError, match=name):
                QueryEngine(graph, **{name: value})

    def test_detach_stops_maintenance(self, graph, engine):
        view = engine.register("MATCH (p:Post) RETURN p")
        view.detach()
        graph.add_vertex(labels=["Post"])
        assert view.rows() == []


class TestVertexUpdates:
    def test_add_and_remove(self, graph, engine):
        view = engine.register("MATCH (p:Post) RETURN p")
        post = graph.add_vertex(labels=["Post"])
        assert view.rows() == [(post,)]
        graph.remove_vertex(post)
        assert view.rows() == []

    def test_label_addition_brings_vertex_in(self, graph, engine):
        vertex = graph.add_vertex()
        view = engine.register("MATCH (p:Post) RETURN p")
        graph.add_label(vertex, "Post")
        assert view.rows() == [(vertex,)]
        graph.remove_label(vertex, "Post")
        assert view.rows() == []

    def test_multi_label_membership(self, graph, engine):
        vertex = graph.add_vertex(labels=["Post"])
        view = engine.register("MATCH (p:Post:Pinned) RETURN p")
        assert view.rows() == []
        graph.add_label(vertex, "Pinned")
        assert view.rows() == [(vertex,)]

    def test_property_change_updates_pushed_column(self, graph, engine):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        view = engine.register("MATCH (p:Post) RETURN p.lang AS l")
        graph.set_vertex_property(post, "lang", "de")
        assert view.rows() == [("de",)]

    def test_property_removal_yields_null(self, graph, engine):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        view = engine.register("MATCH (p:Post) RETURN p.lang AS l")
        graph.set_vertex_property(post, "lang", None)
        assert view.rows() == [(None,)]

    def test_property_change_flips_predicate(self, graph, engine):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        view = engine.register("MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        assert view.rows() == [(post,)]
        graph.set_vertex_property(post, "lang", "fr")
        assert view.rows() == []
        graph.set_vertex_property(post, "lang", "en")
        assert view.rows() == [(post,)]

    def test_labels_function_tracks_label_events(self, graph, engine):
        vertex = graph.add_vertex(labels=["Post"])
        view = engine.register("MATCH (p:Post) RETURN labels(p) AS ls")
        graph.add_label(vertex, "Pinned")
        assert view.rows() == [(ListValue(("Pinned", "Post")),)]

    def test_irrelevant_property_change_is_ignored(self, graph, engine):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        view = engine.register("MATCH (p:Post) RETURN p.lang AS l")
        changes = []
        view.on_change(changes.append)
        graph.set_vertex_property(post, "unrelated", 1)
        assert changes == []


class TestEdgeUpdates:
    def test_edge_add_remove(self, graph, engine):
        a = graph.add_vertex(labels=["Post"])
        b = graph.add_vertex(labels=["Comm"])
        view = engine.register("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        edge = graph.add_edge(a, b, "REPLY")
        assert view.rows() == [(a, b)]
        graph.remove_edge(edge)
        assert view.rows() == []

    def test_edge_of_wrong_type_ignored(self, graph, engine):
        a = graph.add_vertex(labels=["Post"])
        b = graph.add_vertex(labels=["Comm"])
        view = engine.register("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        graph.add_edge(a, b, "LIKES")
        assert view.rows() == []

    def test_endpoint_label_change_updates_edge_tuples(self, graph, engine):
        a = graph.add_vertex(labels=["Post"])
        b = graph.add_vertex()
        graph.add_edge(a, b, "REPLY")
        view = engine.register("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        assert view.rows() == []
        graph.add_label(b, "Comm")
        assert view.rows() == [(a, b)]
        graph.remove_label(b, "Comm")
        assert view.rows() == []

    def test_edge_property_filter(self, graph, engine):
        a = graph.add_vertex(labels=["Person"])
        b = graph.add_vertex(labels=["Person"])
        edge = graph.add_edge(a, b, "KNOWS", properties={"since": 2020})
        view = engine.register(
            "MATCH (a:Person)-[k:KNOWS]->(b:Person) WHERE k.since < 2022 RETURN a, b"
        )
        assert view.rows() == [(a, b)]
        graph.set_edge_property(edge, "since", 2024)
        assert view.rows() == []

    def test_endpoint_property_join_predicate(self, graph, engine):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        comment = graph.add_vertex(labels=["Comm"], properties={"lang": "de"})
        graph.add_edge(post, comment, "REPLY")
        view = engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
        )
        assert view.rows() == []
        graph.set_vertex_property(comment, "lang", "en")
        assert view.rows() == [(post, comment)]

    def test_detach_delete_cleans_joins(self, graph, engine):
        a = graph.add_vertex(labels=["Post"])
        b = graph.add_vertex(labels=["Comm"])
        graph.add_edge(a, b, "REPLY")
        view = engine.register("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        graph.remove_vertex(b, detach=True)
        assert view.rows() == []

    def test_undirected_pattern(self, graph, engine):
        a = graph.add_vertex(labels=["Person"])
        b = graph.add_vertex(labels=["Person"])
        view = engine.register("MATCH (x:Person)-[:KNOWS]-(y:Person) RETURN x, y")
        graph.add_edge(a, b, "KNOWS")
        assert sorted(view.rows()) == [(a, b), (b, a)]

    def test_self_loop_undirected_matches_once(self, graph, engine):
        a = graph.add_vertex(labels=["Person"])
        view = engine.register("MATCH (x:Person)-[:KNOWS]-(y) RETURN x, y")
        graph.add_edge(a, a, "KNOWS")
        assert view.rows() == [(a, a)]


class TestPathMaintenance:
    """The paper's running example under updates — atomic path semantics."""

    def test_paper_example_initial(self, paper_graph, paper_engine):
        view = paper_engine.register(PAPER_QUERY)
        rows = view.rows()
        assert [(r[0], r[1].vertices) for r in rows] == [
            (1, (1, 2)),
            (1, (1, 2, 3)),
        ]

    def test_new_reply_extends_thread(self, paper_graph, paper_engine):
        view = paper_engine.register(PAPER_QUERY)
        new_comment = paper_graph.add_vertex(
            labels=["Comm"], properties={"lang": "en"}
        )
        paper_graph.add_edge(3, new_comment, "REPLY")
        assert len(view.rows()) == 3

    def test_edge_deletion_removes_paths_atomically(self, paper_graph, paper_engine):
        view = paper_engine.register(PAPER_QUERY)
        # deleting the 2→3 edge kills exactly the [1,2,3] path
        edge = next(iter(paper_graph.out_edges(2, "REPLY")))
        paper_graph.remove_edge(edge)
        rows = view.rows()
        assert [(r[0], r[1].vertices) for r in rows] == [(1, (1, 2))]

    def test_lang_change_filters_thread(self, paper_graph, paper_engine):
        view = paper_engine.register(PAPER_QUERY)
        paper_graph.set_vertex_property(3, "lang", "de")
        assert len(view.rows()) == 1
        paper_graph.set_vertex_property(3, "lang", "en")
        assert len(view.rows()) == 2

    def test_paths_are_atomic_values(self, paper_graph, paper_engine):
        view = paper_engine.register(PAPER_QUERY)
        changes = []
        view.on_change(changes.append)
        edge = next(iter(paper_graph.out_edges(2, "REPLY")))
        paper_graph.remove_edge(edge)
        # exactly one retraction of the whole path; nothing "patched"
        (delta,) = changes
        items = dict(delta.items())
        assert list(items.values()) == [-1]
        ((post, path),) = [row for row in items]
        assert isinstance(path, PathValue)

    def test_reroute_replaces_path(self, paper_graph, paper_engine):
        """The paper's motivating IVM case: one transaction deletes an edge
        in the path but adds another that keeps the endpoints connected —
        the old path is deleted and the new one inserted."""
        view = paper_engine.register(PAPER_QUERY)
        edge = next(iter(paper_graph.out_edges(2, "REPLY")))
        paper_graph.remove_edge(edge)
        paper_graph.add_edge(1, 3, "REPLY")  # direct reply instead
        rows = view.rows()
        assert {r[1].vertices for r in rows} == {(1, 2), (1, 3)}

    def test_bounded_hops(self, paper_graph, paper_engine):
        view = paper_engine.register(
            "MATCH (p:Post)-[:REPLY*2..2]->(c:Comm) RETURN p, c"
        )
        assert view.rows() == [(1, 3)]

    def test_zero_hop_pattern(self, paper_graph, paper_engine):
        view = paper_engine.register(
            "MATCH (p:Post)-[:REPLY*0..1]->(x) RETURN p, x"
        )
        assert sorted(view.rows()) == [(1, 1), (1, 2)]

    def test_path_unwinding_maintained(self, paper_graph, paper_engine):
        view = paper_engine.register(
            "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n"
        )
        # paths [1,2] and [1,2,3] → bag {1×2, 2×2, 3×1}
        assert view.multiset() == {(1,): 2, (2,): 2, (3,): 1}
        edge = next(iter(paper_graph.out_edges(2, "REPLY")))
        paper_graph.remove_edge(edge)
        assert view.multiset() == {(1,): 1, (2,): 1}


class TestAggregateMaintenance:
    def test_global_count_from_empty(self, graph, engine):
        view = engine.register("MATCH (p:Post) RETURN count(*) AS n")
        assert view.rows() == [(0,)]
        a = graph.add_vertex(labels=["Post"])
        graph.add_vertex(labels=["Post"])
        assert view.rows() == [(2,)]
        graph.remove_vertex(a)
        assert view.rows() == [(1,)]

    def test_grouped_count_tracks_groups(self, graph, engine):
        view = engine.register("MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n")
        a = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_vertex(labels=["Comm"], properties={"lang": "de"})
        assert sorted(view.rows()) == [("de", 1), ("en", 2)]
        graph.set_vertex_property(a, "lang", "de")
        assert sorted(view.rows()) == [("de", 2), ("en", 1)]

    def test_group_disappears_when_empty(self, graph, engine):
        view = engine.register("MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n")
        a = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.remove_vertex(a)
        assert view.rows() == []

    def test_sum_and_collect_under_updates(self, graph, engine):
        view = engine.register(
            "MATCH (p:Post) RETURN sum(p.score) AS s, collect(p.score) AS xs"
        )
        a = graph.add_vertex(labels=["Post"], properties={"score": 3})
        graph.add_vertex(labels=["Post"], properties={"score": 5})
        assert view.rows() == [(8, ListValue((3, 5)))]
        graph.set_vertex_property(a, "score", 10)
        assert view.rows() == [(15, ListValue((5, 10)))]

    def test_count_replies_per_post(self, paper_graph, paper_engine):
        view = paper_engine.register(
            "MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p, count(c) AS n"
        )
        assert view.rows() == [(1, 2)]
        new_comment = paper_graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        paper_graph.add_edge(2, new_comment, "REPLY")
        assert view.rows() == [(1, 3)]


class TestOptionalAndDistinct:
    def test_optional_match_toggles_padding(self, graph, engine):
        post = graph.add_vertex(labels=["Post"])
        view = engine.register(
            "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c"
        )
        assert view.rows() == [(post, None)]
        comment = graph.add_vertex(labels=["Comm"])
        edge = graph.add_edge(post, comment, "REPLY")
        assert view.rows() == [(post, comment)]
        graph.remove_edge(edge)
        assert view.rows() == [(post, None)]

    def test_distinct_collapses_and_restores(self, graph, engine):
        post = graph.add_vertex(labels=["Post"])
        c1 = graph.add_vertex(labels=["Comm"])
        c2 = graph.add_vertex(labels=["Comm"])
        view = engine.register(
            "MATCH (p:Post)-[:REPLY]->(:Comm) RETURN DISTINCT p"
        )
        e1 = graph.add_edge(post, c1, "REPLY")
        graph.add_edge(post, c2, "REPLY")
        assert view.rows() == [(post,)]
        graph.remove_edge(e1)
        assert view.rows() == [(post,)]  # still one witness

    def test_with_having_pattern(self, graph, engine):
        view = engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) "
            "WITH p, count(c) AS n WHERE n >= 2 RETURN p, n"
        )
        post = graph.add_vertex(labels=["Post"])
        c1 = graph.add_vertex(labels=["Comm"])
        c2 = graph.add_vertex(labels=["Comm"])
        graph.add_edge(post, c1, "REPLY")
        assert view.rows() == []
        graph.add_edge(post, c2, "REPLY")
        assert view.rows() == [(post, 2)]

    def test_union_maintained(self, graph, engine):
        view = engine.register(
            "MATCH (p:Post) RETURN p AS n UNION MATCH (c:Comm) RETURN c AS n"
        )
        post = graph.add_vertex(labels=["Post", "Comm"])  # in both branches
        assert view.rows() == [(post,)]  # UNION deduplicates


class TestChangeCallbacks:
    def test_callback_receives_net_delta(self, graph, engine):
        view = engine.register("MATCH (p:Post) RETURN p")
        changes = []
        view.on_change(changes.append)
        post = graph.add_vertex(labels=["Post"])
        assert len(changes) == 1
        assert dict(changes[0].items()) == {(post,): 1}

    def test_no_callback_for_cancelled_delta(self, graph, engine):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        view = engine.register(
            "MATCH (p:Post) WHERE p.lang IS NOT NULL RETURN p"
        )
        changes = []
        view.on_change(changes.append)
        graph.set_vertex_property(post, "lang", "de")  # stays matching: -row +row cancels
        assert changes == []

    def test_oracle_property_on_callbacks(self, graph, engine):
        view = engine.register("MATCH (p:Post)-[:REPLY]->(c) RETURN p, c")
        a = graph.add_vertex(labels=["Post"])
        b = graph.add_vertex(labels=["Comm"])
        graph.add_edge(a, b, "REPLY")
        assert_view_matches_oracle(engine, view, "MATCH (p:Post)-[:REPLY]->(c) RETURN p, c")


class TestParameters:
    def test_parameterised_view(self, graph, engine):
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        post_de = graph.add_vertex(labels=["Post"], properties={"lang": "de"})
        view = engine.register(
            "MATCH (p:Post) WHERE p.lang = $lang RETURN p", parameters={"lang": "de"}
        )
        assert view.rows() == [(post_de,)]
        another = graph.add_vertex(labels=["Post"], properties={"lang": "de"})
        assert sorted(view.rows()) == sorted([(post_de,), (another,)])


class TestProfileCells:
    def test_profile_reports_cells_for_beta_nodes(self, graph, engine):
        # p ships a property, so its © stays joined to the ⇑
        view = engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang, c"
        )
        post = graph.add_vertex(labels=["Post"])
        comm = graph.add_vertex(labels=["Comm"])
        graph.add_edge(post, comm, "REPLY")
        text = view.profile()
        header = text.splitlines()[0]
        assert header.split()[-1] == "cells"
        join_lines = [
            line for line in text.splitlines() if line.startswith("Join")
        ]
        assert join_lines and all(
            int(line.split()[-1]) > 0 for line in join_lines
        )


#: one query per operator shape the second detach must leave alone: σ, ⋈,
#: θ-join, γ, δ, ⋈* (bounded and unbounded), ⟕ and the binding tier
DETACH_SHAPES = [
    ("MATCH (p:Post) WHERE p.lang = 'en' RETURN p", None),
    ("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c", None),
    ("MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c", None),
    ("MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n", None),
    ("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT p", None),
    ("MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c", None),
    (PAPER_QUERY, None),
    ("MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c", None),
    ("MATCH (p:Post) WHERE p.lang = $lang RETURN p", {"lang": "en"}),
]


class TestDetachTwice:
    """A second ``detach()`` is a no-op for every operator shape: it
    releases nothing a sibling view over the same shared nodes still
    holds, so the sibling stays exact and memory does not move."""

    @pytest.mark.parametrize(
        "query, parameters",
        DETACH_SHAPES,
        ids=["select", "join", "theta", "aggregate", "distinct",
             "bounded-path", "paper", "optional", "binding"],
    )
    def test_second_detach_leaves_the_sibling_exact(
        self, graph, engine, query, parameters
    ):
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        comm = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(post, comm, "REPLY")
        sibling = engine.register(query, parameters=parameters)
        view = engine.register(query, parameters=parameters)
        view.detach()
        cells = engine.memory_cells()
        view.detach()
        assert engine.memory_cells() == cells
        assert list(engine.views) == [sibling]
        reply = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(comm, reply, "REPLY")
        graph.add_edge(post, reply, "REPLY")
        graph.set_vertex_property(post, "lang", "de")
        recomputed = engine.evaluate(query, parameters, use_views=False)
        assert sibling.multiset() == recomputed.multiset()
        late = engine.register(query, parameters=parameters)
        assert late.multiset() == recomputed.multiset()
