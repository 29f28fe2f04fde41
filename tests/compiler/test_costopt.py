"""Cost-based join ordering: statistics, estimates, equivalence, benefit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine, compile_query
from repro.algebra import ops
from repro.compiler.costopt import estimated_cost, reorder_joins
from repro.compiler.stats import GraphStatistics, estimate_cardinality
from repro.eval import Interpreter
from repro.rete.engine import IncrementalEngine
from repro.workloads.random_graphs import random_graph


def skewed_graph(rare=3, common=60, seed=5):
    """A graph where label cardinalities differ by an order of magnitude."""
    graph = PropertyGraph()
    rares = [
        graph.add_vertex(labels=["Rare"], properties={"lang": "en"})
        for _ in range(rare)
    ]
    commons = [
        graph.add_vertex(labels=["Common"], properties={"lang": "en" if i % 2 else "de"})
        for i in range(common)
    ]
    import random

    rng = random.Random(seed)
    for c in commons:
        graph.add_edge(rng.choice(rares), c, "R")
        graph.add_edge(c, rng.choice(commons), "S")
    return graph


class TestStatistics:
    def test_counts(self):
        graph = skewed_graph()
        stats = GraphStatistics.from_graph(graph)
        assert stats.vertex_count == 63
        assert stats.label_counts == {"Rare": 3, "Common": 60}
        assert stats.type_counts == {"R": 60, "S": 60}

    def test_get_vertices_estimate(self):
        stats = GraphStatistics.from_graph(skewed_graph())
        assert estimate_cardinality(ops.GetVertices("v", ("Rare",)), stats) == 3
        assert estimate_cardinality(ops.GetVertices("v", ()), stats) == 63

    def test_get_edges_estimate(self):
        stats = GraphStatistics.from_graph(skewed_graph())
        edges = ops.GetEdges("a", "e", "b", ("R",))
        assert estimate_cardinality(edges, stats) == 60
        undirected = ops.GetEdges("a", "e", "b", ("R",), directed=False)
        assert estimate_cardinality(undirected, stats) == 120

    def test_endpoint_labels_scale_edges(self):
        stats = GraphStatistics.from_graph(skewed_graph())
        constrained = ops.GetEdges("a", "e", "b", ("R",), src_labels=("Rare",))
        assert estimate_cardinality(constrained, stats) < 60

    def test_join_estimate_shrinks_on_shared_vertex(self):
        stats = GraphStatistics.from_graph(skewed_graph())
        left = ops.GetEdges("a", "e1", "b", ("R",))
        right = ops.GetEdges("b", "e2", "c", ("S",))
        join = ops.Join(left, right)
        product = 60 * 60
        assert estimate_cardinality(join, stats) < product

    def test_empty_graph_estimates_are_safe(self):
        stats = GraphStatistics.from_graph(PropertyGraph())
        assert estimate_cardinality(ops.GetVertices("v", ("X",)), stats) >= 0


QUERY_POOL = [
    "MATCH (b:Common)-[:S]->(c:Common), (a:Rare)-[:R]->(b) RETURN a, b, c",
    "MATCH (b:Common)<-[:R]-(a:Rare) WHERE b.lang = 'en' RETURN a, b",
    "MATCH (a:Rare)-[:R]->(b:Common)-[:S]->(c:Common) "
    "WHERE a.lang = c.lang RETURN a, c",
    "MATCH (x:Common), (y:Rare) RETURN x, y",  # forced cross product
]


class TestReorderEquivalence:
    @pytest.mark.parametrize("query", QUERY_POOL)
    def test_one_shot_results_identical(self, query):
        graph = skewed_graph()
        stats = GraphStatistics.from_graph(graph)
        baseline = Interpreter(graph).run(compile_query(query).plan)
        reordered = Interpreter(graph).run(compile_query(query, stats).plan)
        assert sorted(baseline.rows(), key=repr) == sorted(
            reordered.rows(), key=repr
        )

    @pytest.mark.parametrize("query", QUERY_POOL)
    def test_incremental_views_identical_after_updates(self, query):
        graph = skewed_graph()
        stats = GraphStatistics.from_graph(graph)
        engine = IncrementalEngine(graph)
        plain = engine.register(compile_query(query))
        costed = engine.register(compile_query(query, stats))
        vertex = graph.add_vertex(labels=["Rare"], properties={"lang": "de"})
        common = next(iter(graph.vertices("Common")))
        graph.add_edge(vertex, common, "R")
        graph.set_vertex_property(common, "lang", "en")
        graph.remove_edge(next(iter(graph.edges("S"))))
        assert plain.multiset() == costed.multiset()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_equivalence_on_random_graphs(self, seed):
        bundle = random_graph(vertices=25, edges=40, seed=seed)
        graph = bundle.graph
        stats = GraphStatistics.from_graph(graph)
        query = (
            "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN a, c"
            if "T1" in graph.edge_types()
            else "MATCH (a)-[:T0]->(b) RETURN a, b"
        )
        baseline = Interpreter(graph).run(compile_query(query).plan)
        reordered = Interpreter(graph).run(compile_query(query, stats).plan)
        assert sorted(baseline.rows(), key=repr) == sorted(
            reordered.rows(), key=repr
        )


class TestReorderBenefit:
    def test_cost_not_worse_on_skew(self):
        graph = skewed_graph()
        stats = GraphStatistics.from_graph(graph)
        query = QUERY_POOL[0]  # written big-relations-first
        plain = compile_query(query).plan
        costed = compile_query(query, stats).plan
        assert estimated_cost(costed, stats) <= estimated_cost(plain, stats)

    def test_memory_reduction_on_pessimal_order(self):
        # written so the syntactic order starts with an 80×80 cross product;
        # the cost-based order defers the cross product to the top
        graph = skewed_graph(rare=2, common=80)
        stats = GraphStatistics.from_graph(graph)
        query = "MATCH (x:Common), (y:Common), (r:Rare)-[:R]->(x) RETURN x, y, r"
        plain = IncrementalEngine(graph)
        plain.register(compile_query(query))
        costed = IncrementalEngine(graph)
        costed.register(compile_query(query, stats))
        assert costed.memory_cells() < plain.memory_cells()

    def test_reorder_handles_plans_without_joins(self):
        graph = skewed_graph()
        stats = GraphStatistics.from_graph(graph)
        plan = compile_query("MATCH (a:Rare) RETURN a", stats).plan
        assert plan is not None  # no joins: pass must be a no-op structurally


class TestEngineIntegration:
    def test_query_engine_accepts_statistics(self):
        graph = skewed_graph()
        engine = QueryEngine(graph)
        stats = GraphStatistics.from_graph(graph)
        compiled = compile_query(QUERY_POOL[0], stats)
        view = engine.register(compiled)
        assert sorted(view.rows(), key=repr) == sorted(
            engine.evaluate(QUERY_POOL[0], use_views=False).rows(), key=repr
        )
