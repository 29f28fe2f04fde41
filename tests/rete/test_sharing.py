"""Cross-view sharing: transparency, late joiners, detach, stats.

Covers shared input nodes and shared interior subplans: the differential
classes drive random streams through one engine over heavily overlapping
views and hold every view to recomputation after every step (type-exact
cells, and each ``on_change`` log replaying to its view), including
rollback transactions, batched mode, and mid-stream register/detach.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.rete.engine import IncrementalEngine
from repro.workloads.social import generate_social

from .oracle import OracleMirror

QUERIES = [
    "MATCH (p:Post) RETURN p.lang AS lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
]


def small_graph():
    graph = PropertyGraph()
    p1 = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    p2 = graph.add_vertex(labels=["Post"], properties={"lang": "de"})
    c1 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(p1, c1, "REPLY")
    return graph, p1, p2, c1


class TestTransparency:
    def test_rows_match_recomputation(self):
        mirror = OracleMirror(small_graph()[0])
        for query in QUERIES:
            mirror.register(query)
        mirror.assert_consistent()

    def test_updates_propagate_exactly(self):
        graph, p1, p2, c1 = small_graph()
        mirror = OracleMirror(graph)
        for query in QUERIES:
            mirror.register(query)
        c2 = graph.add_vertex(labels=["Comm"], properties={"lang": "de"})
        mirror.assert_consistent()
        graph.add_edge(p2, c2, "REPLY")
        mirror.assert_consistent()
        graph.set_vertex_property(c1, "lang", "hu")
        mirror.assert_consistent()
        graph.remove_edge(next(iter(graph.edges("REPLY"))))
        mirror.assert_consistent()

    def test_differential_on_social_workload(self):
        bundle = generate_social(persons=8, posts_per_person=2, seed=7)
        graph = bundle.graph
        engine = QueryEngine(graph)
        views = [engine.register(q) for q in QUERIES]
        post = next(iter(graph.vertices("Post")))
        graph.set_vertex_property(post, "lang", "zz")
        for query, view in zip(QUERIES, views):
            assert sorted(view.rows(), key=repr) == sorted(
                engine.evaluate(query, use_views=False).rows(), key=repr
            )


class TestSharingMechanics:
    def test_views_over_one_relation_share_its_input(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        engine.register(QUERIES[0])
        stats_after_first = engine.input_layer.stats.nodes
        engine.register(QUERIES[1])  # a different top over the same ©
        assert engine.input_layer.stats.nodes == stats_after_first
        assert engine.input_layer.stats.requests > engine.input_layer.stats.nodes

    def test_identical_views_share_whole_subplans(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        engine.register(QUERIES[2])
        nodes_after_first = engine.input_layer.stats.subplan_nodes
        engine.register(QUERIES[2])
        # the second view cut over at the plan root: no new interior nodes
        assert engine.input_layer.stats.subplan_nodes == nodes_after_first
        assert engine.input_layer.stats.subplan_hits >= 1

    def test_late_view_sees_current_state_once(self):
        graph, p1, p2, c1 = small_graph()
        engine = IncrementalEngine(graph)
        first = engine.register(QUERIES[0])
        # register the same query again after the layer is already live
        second = engine.register(QUERIES[0])
        assert sorted(second.rows()) == sorted(first.rows())
        assert second.multiset() == first.multiset()  # no double counting

    def test_late_view_tracks_subsequent_updates(self):
        graph, p1, *_ = small_graph()
        engine = IncrementalEngine(graph)
        engine.register(QUERIES[0])
        late = engine.register(QUERIES[1])
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        assert dict(late.rows()) == {"en": 2, "de": 1}

    def test_detach_stops_updates_and_prunes(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        view_a = engine.register(QUERIES[0])
        view_b = engine.register(QUERIES[2])
        assert engine.input_layer.node_count > 0
        view_b.detach()
        view_a.detach()
        assert engine.input_layer.node_count == 0
        # events after detach are harmless
        graph.add_vertex(labels=["Post"], properties={"lang": "xx"})

    def test_detach_leaves_other_views_live(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        doomed = engine.register(QUERIES[0])
        survivor = engine.register(QUERIES[0])
        doomed.detach()
        graph.add_vertex(labels=["Post"], properties={"lang": "fr"})
        assert ("fr",) in survivor.rows()

    def test_write_queries_drive_shared_views(self):
        graph = PropertyGraph()
        engine = QueryEngine(graph)
        view_a = engine.register(QUERIES[0])
        view_b = engine.register(QUERIES[3])
        engine.execute(
            "CREATE (p:Post {lang: 'en'})-[:REPLY]->(c:Comm {lang: 'en'})"
        )
        assert view_a.rows() == [("en",)]
        assert len(view_b.rows()) == 1


# ---------------------------------------------------------------------------
# subplan tier
# ---------------------------------------------------------------------------

#: heavily overlapping views: common join cores under differing tops,
#: alpha-renamed twins, aggregation / dedup / projection variants
SUBPLAN_QUERIES = (
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c, p",
    "MATCH (x:Post)-[:REPLY]->(y:Comm) RETURN x, y",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang "
    "RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN DISTINCT p",
    "MATCH (p:Post) RETURN p, p.lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b",
    "MATCH (p:Post)-[:REPLY]->(c:Comm)-[:REPLY]->(d:Comm) RETURN p, d",
)

SP_LABELS = ("Post", "Comm", "Person")
SP_EDGE_TYPES = ("REPLY", "KNOWS")
SP_VALUES = ("en", "de", "hu", 1, 2, None)


class _Abort(Exception):
    pass


def _random_op(rng: random.Random, vertices: list[int], edges: list[int]):
    """One parameterised mutation, applicable to any identical graph."""
    roll = rng.random()
    if roll < 0.25 or not vertices:
        labels = rng.sample(SP_LABELS, rng.randint(0, 2))
        props = {"lang": rng.choice(SP_VALUES)} if rng.random() < 0.7 else {}
        return lambda g: g.add_vertex(labels=labels, properties=props)
    if roll < 0.45:
        src, tgt = rng.choice(vertices), rng.choice(vertices)
        edge_type = rng.choice(SP_EDGE_TYPES)
        return lambda g: g.add_edge(src, tgt, edge_type)
    if roll < 0.60:
        vertex = rng.choice(vertices)
        value = rng.choice(SP_VALUES)
        return lambda g: g.set_vertex_property(vertex, "lang", value)
    if roll < 0.72:
        vertex, label = rng.choice(vertices), rng.choice(SP_LABELS)
        if rng.random() < 0.5:
            return lambda g: g.add_label(vertex, label)
        return lambda g: g.remove_label(vertex, label)
    if roll < 0.85 and edges:
        edge = rng.choice(edges)
        return lambda g: g.remove_edge(edge)
    vertex = rng.choice(vertices)
    return lambda g: g.remove_vertex(vertex, detach=True)


def _drive(mirror: OracleMirror, rng: random.Random, operations: int) -> None:
    for _ in range(operations):
        vertices = list(mirror.graph.vertices())
        edges = list(mirror.graph.edges())
        if rng.random() < 0.08:
            # an aborted transaction: compensation must leave shared and
            # private memories untouched
            ops = [
                _random_op(rng, vertices, edges) for _ in range(rng.randint(1, 4))
            ]
            try:
                with mirror.graph.transaction():
                    for op in ops:
                        op(mirror.graph)
                    raise _Abort()
            except (_Abort, GraphError):
                pass
        else:
            _random_op(rng, vertices, edges)(mirror.graph)
        mirror.assert_consistent()


class TestSubplanDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_recomputation(self, seed):
        mirror = OracleMirror(PropertyGraph())
        for query in SUBPLAN_QUERIES:
            mirror.register(query)
        _drive(mirror, random.Random(200 + seed), operations=60)

    @pytest.mark.parametrize("seed", range(2))
    def test_batched_transactions_match_recomputation(self, seed):
        """Committed and rolled-back transactions under batch_transactions."""
        rng = random.Random(300 + seed)
        mirror = OracleMirror(PropertyGraph(), batch_transactions=True)
        for query in SUBPLAN_QUERIES:
            mirror.register(query)
        for _ in range(20):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            ops = [
                _random_op(rng, vertices, edges) for _ in range(rng.randint(1, 5))
            ]
            abort = rng.random() < 0.3

            def run(graph, ops=ops, abort=abort):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                        if abort:
                            raise _Abort()
                except (_Abort, GraphError):
                    pass

            run(mirror.graph)
            mirror.assert_consistent()

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach(self, seed):
        """Views joining and leaving a live shared beta layer stay exact."""
        rng = random.Random(400 + seed)
        mirror = OracleMirror(PropertyGraph())
        for query in SUBPLAN_QUERIES[:5]:
            mirror.register(query)
        pool = list(SUBPLAN_QUERIES)
        for _ in range(50):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            roll = rng.random()
            if roll < 0.10:
                mirror.register(pool[rng.randrange(len(pool))])
            elif roll < 0.18 and len(mirror.views) > 1:
                mirror.detach(rng.randrange(len(mirror.views)))
            else:
                _random_op(rng, vertices, edges)(mirror.graph)
            mirror.assert_consistent()

    def test_mid_batch_register_matches_recomputation(self):
        rng = random.Random(17)
        mirror = OracleMirror(PropertyGraph())
        graph = mirror.graph
        for query in SUBPLAN_QUERIES[:4]:
            mirror.register(query)
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        comm = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(post, comm, "REPLY")
        with mirror.engine.batch():
            for _ in range(8):
                _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
            for query in SUBPLAN_QUERIES[4:]:
                mirror.register(query)
            for _ in range(8):
                _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
        mirror.assert_consistent()


class TestSubplanMechanics:
    def test_alpha_renamed_views_share(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        engine.register(SUBPLAN_QUERIES[0])
        nodes_before = engine.input_layer.stats.subplan_nodes
        engine.register(SUBPLAN_QUERIES[2])  # same plan, renamed variables
        assert engine.input_layer.stats.subplan_hits >= 1
        # the join core is reused; only the top projection may be new
        assert engine.input_layer.stats.subplan_nodes <= nodes_before + 1

    def test_shared_beta_layer_reduces_memory(self):
        """A view counts its shared nodes fully, so the sum over views is
        what unshared networks would hold; the engine counts them once."""
        graph = generate_social(persons=10, posts_per_person=2, seed=3).graph
        engine = IncrementalEngine(graph)
        views = []
        for query in SUBPLAN_QUERIES[:6]:
            views.append(engine.register(query))
            views.append(engine.register(query))  # a second identical subscriber
        assert engine.memory_cells() < sum(view.memory_cells() for view in views)

    def test_late_view_replays_interior_state_once(self):
        graph, p1, p2, c1 = small_graph()
        engine = IncrementalEngine(graph)
        first = engine.register(SUBPLAN_QUERIES[3])
        late = engine.register(SUBPLAN_QUERIES[3])
        assert late.multiset() == first.multiset()
        c2 = graph.add_vertex(labels=["Comm"], properties={"lang": "de"})
        graph.add_edge(p2, c2, "REPLY")
        assert late.multiset() == first.multiset()

    def test_equal_but_differently_typed_bindings_do_not_share(self):
        """1 == True == 1.0 in Python; the cache key must not conflate them."""
        graph = PropertyGraph()
        graph.add_vertex(labels=["Post"])
        engine = IncrementalEngine(graph)
        query = "MATCH (p:Post) RETURN p, $x AS x"
        as_int = engine.register(query, parameters={"x": 1})
        as_bool = engine.register(query, parameters={"x": True})
        as_float = engine.register(query, parameters={"x": 1.0})
        assert [row[1] for row in as_int.rows()] == [1]
        assert [row[1] for row in as_bool.rows()] == [True]
        assert [row[1] for row in as_float.rows()] == [1.0]
        assert all(isinstance(row[1], int) for row in as_int.rows())
        assert all(isinstance(row[1], bool) for row in as_bool.rows())
        assert all(isinstance(row[1], float) for row in as_float.rows())

    def test_parameterised_views_share_only_equal_bindings(self):
        graph = PropertyGraph()
        for score in (1, 2, 3):
            graph.add_vertex(labels=["Post"], properties={"score": score})
        engine = IncrementalEngine(graph)
        query = "MATCH (p:Post) WHERE p.score > $min RETURN p"
        low = engine.register(query, parameters={"min": 1})
        hits_before = engine.input_layer.stats.subplan_hits
        low_twin = engine.register(query, parameters={"min": 1})
        assert engine.input_layer.stats.subplan_hits > hits_before
        high = engine.register(query, parameters={"min": 2})
        assert low.multiset() == low_twin.multiset()
        assert len(low.rows()) == 2
        assert len(high.rows()) == 1

    def test_identical_subtrees_within_one_plan_share_a_node(self):
        """Intra-plan sharing: both cross-product arms are the same node,
        and the sequential self-join rule keeps the result exact."""
        graph = PropertyGraph()
        c1 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        c2 = graph.add_vertex(labels=["Comm"], properties={"lang": "de"})
        graph.add_edge(c1, c2, "REPLY")
        query = (
            "MATCH (a:Comm)-[:REPLY]->(b:Comm), (c:Comm)-[:REPLY]->(d:Comm) "
            "RETURN a, d"
        )
        engine = IncrementalEngine(graph)
        view = engine.register(query)
        assert view.multiset() == engine_oracle(engine, query)
        c3 = graph.add_vertex(labels=["Comm"], properties={"lang": "hu"})
        graph.add_edge(c2, c3, "REPLY")
        assert view.multiset() == engine_oracle(engine, query)
        graph.remove_edge(next(iter(graph.edges("REPLY"))))
        assert view.multiset() == engine_oracle(engine, query)

    def test_profile_marks_shared_interior_nodes(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        view = engine.register(SUBPLAN_QUERIES[3])
        assert "(shared)" in view.profile()
        assert "Join (shared)" in view.profile()


class TestSubplanLifecycle:
    def test_detach_releases_refcounts_bottom_up(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        layer = engine.input_layer
        view_a = engine.register(SUBPLAN_QUERIES[3])
        view_b = engine.register(SUBPLAN_QUERIES[4])  # shares the σ(⋈) core
        count_with_both = layer.subplan_count
        assert count_with_both > 0
        view_b.detach()
        # the shared core survives: view_a still reads it
        assert layer.subplan_count > 0
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        assert view_a.multiset() == engine_oracle(engine, SUBPLAN_QUERIES[3])
        view_a.detach()
        assert layer.subplan_count == 0
        assert layer.node_count == 0

    def test_interior_chain_outlives_its_creator(self):
        """A subplan created by view A must keep feeding view B after A dies."""
        graph, p1, p2, c1 = small_graph()
        engine = IncrementalEngine(graph)
        creator = engine.register(SUBPLAN_QUERIES[3])
        survivor = engine.register(SUBPLAN_QUERIES[3])
        creator.detach()
        c2 = graph.add_vertex(labels=["Comm"], properties={"lang": "de"})
        graph.add_edge(p2, c2, "REPLY")
        assert survivor.multiset() == engine_oracle(engine, SUBPLAN_QUERIES[3])

    def test_memories_freed_and_rebuild_is_correct(self):
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        view = engine.register(SUBPLAN_QUERIES[3])
        assert engine.memory_cells() > 0
        view.detach()
        assert engine.input_layer.memory_cells() == 0
        assert engine.input_layer.subplan_count == 0
        # events while nothing is registered are harmless
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        rebuilt = engine.register(SUBPLAN_QUERIES[3])
        assert rebuilt.multiset() == engine_oracle(engine, SUBPLAN_QUERIES[3])

    def test_random_register_detach_cycles_leave_no_garbage(self):
        rng = random.Random(99)
        bundle = generate_social(persons=6, posts_per_person=2, seed=11)
        engine = IncrementalEngine(bundle.graph)
        live = []
        for _ in range(40):
            if live and rng.random() < 0.45:
                live.pop(rng.randrange(len(live))).detach()
            else:
                live.append(
                    engine.register(
                        SUBPLAN_QUERIES[rng.randrange(len(SUBPLAN_QUERIES))]
                    )
                )
        for view in live:
            view.detach()
        assert engine.input_layer.subplan_count == 0
        assert engine.input_layer.node_count == 0

    def test_prune_counts_the_unit_node(self):
        """A unit leaf dropped by prune counts like any other node."""
        engine = IncrementalEngine(PropertyGraph())
        layer = engine.input_layer
        view = engine.register("RETURN 1 AS x")
        assert layer.node_count == 2  # π and the unit
        view.detach()
        assert layer.node_count == 0
        assert layer.stats.pruned == 2

    @pytest.mark.parametrize(
        "query",
        [
            "UNWIND [1, 2] AS x RETURN x",
            "MATCH (p:Post) RETURN p",
            SUBPLAN_QUERIES[3],
            "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c",
            "MATCH (p:Post) RETURN DISTINCT p.lang AS lang",
            "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
            "MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c",
        ],
        ids=["unwind", "scan", "join", "optional", "dedup", "aggregate", "closure"],
    )
    def test_prune_counts_every_node_it_drops(self, query):
        """Every layer node a detach frees, leaf or interior, is counted
        once in ``stats.pruned``."""
        graph, *_ = small_graph()
        engine = IncrementalEngine(graph)
        layer = engine.input_layer
        view = engine.register(query)
        held = layer.node_count
        assert held > 0
        view.detach()
        assert layer.node_count == 0
        assert layer.stats.pruned == held


def engine_oracle(engine: IncrementalEngine, query: str):
    """One-shot recomputation over the engine's graph (the IVM oracle)."""
    from repro.compiler.pipeline import compile_query
    from repro.eval.interpreter import Interpreter

    return Interpreter(engine.graph).run(compile_query(query).plan).multiset()
