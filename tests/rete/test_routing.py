"""Differential suite: interest-routed dispatch vs. recomputation.

One engine receives view registrations covering every routing bucket
family and a random event stream.  Routing is a pure candidate-set
reduction — a node the router skips must be one that would have produced
an empty delta — so after every operation each view must equal one-shot
re-evaluation (the paper's IVM property), compared type-exactly, and its
``on_change`` log must replay to its contents.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError

from .oracle import OracleMirror

LABELS = ("Post", "Comm", "Person", "Tag")
EDGE_TYPES = ("REPLY", "LIKES", "KNOWS")
VERTEX_KEYS = ("lang", "score", "name")
EDGE_KEYS = ("weight", "since")
VALUES = ("en", "de", "hu", 1, 2, 5, None)

#: one query per routing bucket family: labelled / unlabelled vertices,
#: labels() and properties() wildcards, typed / untyped edges, endpoint
#: labels, endpoint and edge property columns, aggregation on top
QUERIES = (
    "MATCH (p:Post) RETURN p, p.lang",
    "MATCH (n) RETURN n",
    "MATCH (n:Post) RETURN labels(n)",
    "MATCH (p:Post)-[r:REPLY]->(c:Comm) RETURN p, c, c.lang",
    "MATCH (a)-[r:LIKES]->(b) RETURN a, b",
    "MATCH (a)-[r]->(b) RETURN a, b, r.weight",
    "MATCH (a:Person)-[r:KNOWS]->(b:Person) WHERE a.score > b.score RETURN a, b",
    "MATCH (n:Comm) RETURN n.lang AS lang, count(*) AS c",
    "MATCH (a)-[r:LIKES]->(b) RETURN a, type(r), properties(b)",
)


class _Abort(Exception):
    pass


def _random_op(rng: random.Random, vertices: list[int], edges: list[int]):
    """One parameterised mutation, applicable to any identical graph."""
    roll = rng.random()
    if roll < 0.22 or not vertices:
        labels = rng.sample(LABELS, rng.randint(0, 2))
        props = {
            key: rng.choice(VALUES)
            for key in rng.sample(VERTEX_KEYS, rng.randint(0, 2))
        }
        return lambda g: g.add_vertex(labels=labels, properties=props)
    if roll < 0.40:
        src, tgt = rng.choice(vertices), rng.choice(vertices)
        edge_type = rng.choice(EDGE_TYPES)
        props = {rng.choice(EDGE_KEYS): rng.choice(VALUES)}
        return lambda g: g.add_edge(src, tgt, edge_type, properties=props)
    if roll < 0.55:
        vertex, key = rng.choice(vertices), rng.choice(VERTEX_KEYS)
        value = rng.choice(VALUES)
        return lambda g: g.set_vertex_property(vertex, key, value)
    if roll < 0.65:
        vertex, label = rng.choice(vertices), rng.choice(LABELS)
        if rng.random() < 0.5:
            return lambda g: g.add_label(vertex, label)
        return lambda g: g.remove_label(vertex, label)
    if roll < 0.78 and edges:
        edge, key = rng.choice(edges), rng.choice(EDGE_KEYS)
        value = rng.choice(VALUES)
        return lambda g: g.set_edge_property(edge, key, value)
    if roll < 0.88 and edges:
        edge = rng.choice(edges)
        return lambda g: g.remove_edge(edge)
    vertex = rng.choice(vertices)
    return lambda g: g.remove_vertex(vertex, detach=True)


def _drive(mirror: OracleMirror, rng: random.Random, operations: int) -> None:
    """Apply a random stream, checking consistency after every step."""
    for _ in range(operations):
        vertices = list(mirror.graph.vertices())
        edges = list(mirror.graph.edges())
        if rng.random() < 0.08:
            # a transaction that aborts: compensation events must route to
            # every node the forward events reached
            ops = [
                _random_op(rng, vertices, edges) for _ in range(rng.randint(1, 4))
            ]

            def aborted(graph, ops=ops):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                        raise _Abort()
                except (_Abort, GraphError):
                    # a mid-transaction graph error rolls back too
                    pass

            aborted(mirror.graph)
        else:
            _random_op(rng, vertices, edges)(mirror.graph)
        mirror.assert_consistent()


@pytest.mark.parametrize("seed", range(5))
def test_random_stream_matches_recomputation(seed):
    mirror = OracleMirror(PropertyGraph())
    for query in QUERIES:
        mirror.register(query)
    _drive(mirror, random.Random(seed), operations=80)


#: constant selections: pushed into input nodes as value buckets under
#: ``columnar_deltas``, plain σ nodes in row mode
CONSTANT_QUERIES = (
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (p:Post)-[r:REPLY]->(c:Comm) WHERE c.score = 2 RETURN p, c",
    "MATCH (a)-[r:LIKES]->(b) WHERE r.weight = 5 RETURN a, b",
)


@pytest.mark.parametrize("columnar", [True, False], ids=["pushdown", "row"])
def test_constant_selections_route_exactly(columnar):
    """Value-bucket routing skips only events whose value no pushed-down
    selection wants; row mode routes on labels and types alone."""
    mirror = OracleMirror(PropertyGraph(), columnar_deltas=columnar)
    for query in QUERIES + CONSTANT_QUERIES:
        mirror.register(query)
    _drive(mirror, random.Random(11), operations=80)


#: batched translation paths the stream queries leave out: an undirected
#: pattern with an endpoint column, and a two-label vertex input
BATCH_QUERIES = (
    "MATCH (a:Person)-[r:KNOWS]-(b) RETURN a, b, b.lang",
    "MATCH (n:Post:Tag) RETURN n, n.score",
)


@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "rows"])
@pytest.mark.parametrize("seed", range(6))
def test_batched_transactions_match_recomputation(seed, columnar):
    """Committed and rolled-back transactions under batch_transactions."""
    rng = random.Random(1000 + seed)
    mirror = OracleMirror(
        PropertyGraph(), batch_transactions=True, columnar_deltas=columnar
    )
    for query in QUERIES + CONSTANT_QUERIES + BATCH_QUERIES:
        mirror.register(query)
    for _ in range(25):
        vertices = list(mirror.graph.vertices())
        edges = list(mirror.graph.edges())
        ops = [
            _random_op(rng, vertices, edges) for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.3:

            def aborted(graph, ops=ops):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                        raise _Abort()
                except (_Abort, GraphError):
                    # a mid-transaction graph error rolls back too
                    pass

            aborted(mirror.graph)
        else:

            def committed(graph, ops=ops):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                except GraphError:
                    pass

            committed(mirror.graph)
        mirror.assert_consistent()


def test_mid_batch_register_matches_recomputation():
    """A view joining inside an open batch flushes pending work first."""
    rng = random.Random(7)
    mirror = OracleMirror(PropertyGraph())
    graph = mirror.graph
    for query in QUERIES[:4]:
        mirror.register(query)
    post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    comm = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(post, comm, "REPLY")
    mirror.assert_consistent()

    with mirror.engine.batch():
        for _ in range(10):
            _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
        for query in QUERIES[4:]:
            mirror.register(query)
        for _ in range(10):
            _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
    mirror.assert_consistent()


def test_detach_withdraws_interests():
    """Pruned shared input nodes stop receiving routed events entirely."""
    graph = PropertyGraph()
    engine = QueryEngine(graph, detached_cache_size=0)
    view = engine.register("MATCH (p:Post) RETURN p")
    keeper = engine.register("MATCH (c:Comm) RETURN c")
    router = engine._incremental.input_layer.router
    assert len(router) == 2
    assert "Post" in router._v_membership.keyed
    view.detach()
    assert len(router) == 1
    # emptied keyed buckets are deleted, not left behind as dead keys
    assert "Post" not in router._v_membership.keyed
    post = graph.add_vertex(labels=["Post"])  # routed nowhere, must not raise
    graph.add_vertex(labels=["Comm"])
    graph.remove_vertex(post)
    assert keeper.multiset() == engine.evaluate("MATCH (c:Comm) RETURN c", use_views=False).multiset()
