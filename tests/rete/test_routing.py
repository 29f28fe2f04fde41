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


#: constant selections: plain σ over the shared input nodes
CONSTANT_QUERIES = (
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (p:Post)-[r:REPLY]->(c:Comm) WHERE c.score = 2 RETURN p, c",
    "MATCH (a)-[r:LIKES]->(b) WHERE r.weight = 5 RETURN a, b",
)


def test_constant_selections_route_exactly():
    """Routing on labels, types and keys alone keeps constant selections
    exact."""
    mirror = OracleMirror(PropertyGraph())
    for query in QUERIES + CONSTANT_QUERIES:
        mirror.register(query)
    _drive(mirror, random.Random(11), operations=80)


#: five views that differ only in one constant, per compared element:
#: (query template, the constants, the compared element, its key, the
#: values churn writes to that key).  The numeric pool holds ``True``
#: beside ``1`` and ``1.0``: a write between two ``==`` values of different
#: types moves a row between the ``= 1`` view and the others.
CONSTANT_FAMILIES = {
    "vertex-string": (
        "MATCH (p:Post) WHERE p.lang = {} RETURN p.content",
        ("'en'", "'de'", "'hu'", "'fr'", "'it'"),
        "post",
        "lang",
        ("en", "de", "hu", "fr", "it", None, 1),
    ),
    "vertex-number": (
        "MATCH (p:Post) WHERE p.score = {} RETURN p.content",
        ("0", "1", "2", "2.5", "-1"),
        "post",
        "score",
        (0, 1, 1.0, True, 2, 2.5, -1, "1", None),
    ),
    "edge": (
        "MATCH (p:Post)-[r:REPLY]->(c:Comm) WHERE r.w = {} RETURN c.content",
        ("'a'", "'b'", "'c'", "'d'", "'e'"),
        "edge",
        "w",
        ("a", "b", "c", "d", "e", None, 0),
    ),
}


@pytest.mark.parametrize("family", CONSTANT_FAMILIES)
@pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
def test_constant_selections_share_one_input_node(batched, family):
    """Five views differing only in a constant read the input nodes the
    first one built: the constant is a σ above them, and the router holds
    each once.  Churn on the compared key and on the returned key keeps
    every view exact."""
    template, constants, element, key, values = CONSTANT_FAMILIES[family]
    mirror = OracleMirror(PropertyGraph(), batch_transactions=batched)
    layer = mirror.engine._incremental.input_layer
    mirror.register(template.format(constants[0]))
    inputs = [*layer._vertex_nodes.values(), *layer._edge_nodes.values()]
    for constant in constants[1:]:
        mirror.register(template.format(constant))
    router = layer.router
    assert [*layer._vertex_nodes.values(), *layer._edge_nodes.values()] == inputs
    assert len(router) == len(inputs)
    assert all(id(node) in router._registered for node in inputs)
    graph, rng = mirror.graph, random.Random(5)
    posts = [
        graph.add_vertex(
            labels=["Post"],
            properties={
                "lang": rng.choice(values),
                "score": rng.choice(values),
                "content": f"p{index}",
            },
        )
        for index in range(8)
    ]
    comms = [
        graph.add_vertex(labels=["Comm"], properties={"content": f"c{index}"})
        for index in range(4)
    ]
    edges = [
        graph.add_edge(
            rng.choice(posts), rng.choice(comms), "REPLY", {"w": rng.choice(values)}
        )
        for _ in range(10)
    ]
    mirror.assert_consistent()
    for step in range(60):
        with graph.transaction():
            for _ in range(rng.randint(1, 3)):
                value = rng.choice(values)
                if rng.random() >= 0.5:
                    vertex = rng.choice(posts + comms)
                    graph.set_vertex_property(vertex, "content", f"s{step}")
                elif element == "edge":
                    graph.set_edge_property(rng.choice(edges), key, value)
                else:
                    graph.set_vertex_property(rng.choice(posts), key, value)
        mirror.assert_consistent()
    assert [*layer._vertex_nodes.values(), *layer._edge_nodes.values()] == inputs
    assert len(router) == len(inputs)


#: batched translation paths the stream queries leave out: an undirected
#: pattern with an endpoint column, and a two-label vertex input
BATCH_QUERIES = (
    "MATCH (a:Person)-[r:KNOWS]-(b) RETURN a, b, b.lang",
    "MATCH (n:Post:Tag) RETURN n, n.score",
)


@pytest.mark.parametrize("seed", range(6))
def test_batched_transactions_match_recomputation(seed):
    """Committed and rolled-back transactions under batch_transactions."""
    rng = random.Random(1000 + seed)
    mirror = OracleMirror(PropertyGraph(), batch_transactions=True)
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
    engine = QueryEngine(graph)
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
