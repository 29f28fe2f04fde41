"""One delta form on every edge: nothing but a ``ColumnDelta`` reaches a node.

Every node class's ``apply`` and ``transform`` and ``JoinNode.fold_deferred``
are wrapped to check what they are handed, while a seeded random stream
drives one engine through every way a delta is made: autocommitted
mutations (the per-event path), transactions that commit and that roll
back, ``engine.batch()`` windows, a view registered inside an open window
(populate), a second binding of a parameterised query (the lift to a
binding-indexed σ, populated by restricted replay), the deferred drain of a
⋈ whose side is read from the graph, and detaching every view.  Each view
is held to recomputation throughout, in every row of the engine's option
matrix.

CI runs this module under two ``PYTHONHASHSEED`` values: a per-event batch
lists its rows in incident-edge and label order, which must not depend on
string hashing.
"""

import random
from collections import Counter

import pytest

from repro import PropertyGraph
from repro.errors import GraphError
from repro.rete.deltas import ColumnDelta
from repro.rete.nodes.base import Node
from repro.rete.nodes.join import JoinNode

from .oracle import ENGINE_OPTION_IDS, ENGINE_OPTIONS, OracleMirror

QUERIES = (
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p.lang AS lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT p.lang AS lang",
    "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN a, c",
    "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post) OPTIONAL MATCH (p)-[r:REPLY]->(c:Comm) "
    "WITH p, r WHERE r IS NULL RETURN p",
    "MATCH (p:Post) RETURN p AS n UNION ALL MATCH (c:Comm) RETURN c AS n",
    "MATCH (p:Post) UNWIND [p.lang, p.score, p.lang] AS v RETURN p, v",
    "MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c",
)

#: registered under one binding first, under a second one mid-stream
PARAMETERISED = "MATCH (p:Post) WHERE p.lang = $lang RETURN p"

#: registered inside an open batch window
LATE = "MATCH (c:Comm)<-[:REPLY]-(p:Post) RETURN c, count(p) AS n"

LABELS = ("Post", "Comm", "Person")
TYPES = ("REPLY", "KNOWS")
VALUES = ("en", "de", 1, True, 1.0, None)

#: the nodes the stream must reach, each with a batch (no Cypher text
#: compiles to ▷ — a negative condition is ⟕ under σ, as in the
#: ``r IS NULL`` query — so ▷ is fed batches in the node suites only)
KINDS = {
    "Selection",
    "Projection",
    "Aggregate",
    "Dedup",
    "Join",
    "LeftOuterJoin",
    "Union",
    "Unwind",
    "TransitiveClosure",
    "BindingIndexedSelection",
    "SelectionPartition",
    "Production",
}


class _Abort(Exception):
    pass


def _node_classes() -> list[type]:
    found, stack = [], [Node]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


@pytest.fixture
def crossings(monkeypatch) -> Counter:
    """Wrap every node method that receives a delta; counts each call by
    node kind, and deferred drains under ``"drained"``."""
    seen: Counter = Counter()

    def guarded(name, method):
        def checked(self, delta, side):
            kind = type(self).__name__.removesuffix("Node")
            assert type(delta) is ColumnDelta, (kind, name, type(delta).__name__)
            seen[kind] += 1
            if name == "fold_deferred" and self.propagation.active:
                seen["drained"] += 1
            return method(self, delta, side)

        return checked

    for cls in _node_classes():
        for name in ("apply", "transform"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, guarded(name, vars(cls)[name]))
    monkeypatch.setattr(
        JoinNode,
        "fold_deferred",
        guarded("fold_deferred", vars(JoinNode)["fold_deferred"]),
    )
    return seen


def _op(rng: random.Random, graph: PropertyGraph):
    """One mutation of *graph*, drawn from *rng*."""
    vertices, edges = list(graph.vertices()), list(graph.edges())
    roll = rng.random()
    if roll < 0.25 or not vertices:
        labels = rng.sample(LABELS, rng.randint(1, 2))
        props = {"lang": rng.choice(VALUES), "score": rng.randrange(3)}
        return lambda: graph.add_vertex(labels=labels, properties=props)
    if roll < 0.5:
        src, tgt = rng.choice(vertices), rng.choice(vertices)
        edge_type = rng.choice(TYPES)
        return lambda: graph.add_edge(src, tgt, edge_type)
    vertex = rng.choice(vertices)
    if roll < 0.65:
        key, value = rng.choice((("lang", rng.choice(VALUES)), ("score", 7)))
        return lambda: graph.set_vertex_property(vertex, key, value)
    if roll < 0.8:
        label = rng.choice(LABELS)
        if rng.random() < 0.5:
            return lambda: graph.add_label(vertex, label)
        return lambda: graph.remove_label(vertex, label)
    if roll < 0.92 and edges:
        edge = rng.choice(edges)
        return lambda: graph.remove_edge(edge)
    return lambda: graph.remove_vertex(vertex, detach=True)


def _run(rng: random.Random, graph: PropertyGraph, count: int) -> None:
    for _ in range(count):
        try:
            _op(rng, graph)()
        except GraphError:
            pass


@pytest.mark.parametrize("options", ENGINE_OPTIONS, ids=ENGINE_OPTION_IDS)
def test_every_delta_on_an_edge_is_a_column_batch(options, crossings):
    rng = random.Random(4701)
    graph = PropertyGraph()
    mirror = OracleMirror(graph, plain=False, **options)
    engine = mirror.engine
    _run(rng, graph, 30)
    for query in QUERIES:
        mirror.register(query)
    mirror.register(PARAMETERISED, {"lang": "en"})
    mirror.assert_consistent()
    for step in range(80):
        roll = rng.random()
        if roll < 0.5:
            _run(rng, graph, 1)  # autocommitted: the per-event path
        elif roll < 0.65:
            with graph.transaction():
                _run(rng, graph, rng.randint(2, 4))
        elif roll < 0.75:
            try:
                with graph.transaction():
                    _run(rng, graph, rng.randint(1, 4))
                    raise _Abort()
            except _Abort:
                pass
        else:
            with engine.batch():
                _run(rng, graph, rng.randint(2, 5))
        if step == 10:
            with engine.batch():
                _run(rng, graph, 3)
                mirror.register(LATE)
                _run(rng, graph, 3)
        if step == 30:
            # a second binding lifts the σ onto one binding-indexed node
            mirror.register(PARAMETERISED, {"lang": "de"})
        mirror.assert_consistent()
    assert KINDS <= set(crossings), KINDS - set(crossings)
    assert crossings["drained"], "no deferred drain of a probe join ran"
    while mirror.views:
        mirror.detach(0)
    assert not engine._incremental.input_layer.subplan_count
    _run(rng, graph, 10)
    mirror.register(QUERIES[3])
    _run(rng, graph, 10)
    mirror.assert_consistent()
