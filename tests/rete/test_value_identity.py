"""A write between two ``==`` values of different types is a change.

Python ``==`` conflates ``1``, ``True`` and ``1.0`` (and lists holding
them); Cypher ``=`` does not.  A ``1`` → ``True`` write must therefore move
a row from the ``= 1`` selection to the ``= true`` one, per event and in a
batch, through a vertex input, an edge input's endpoint column and an edge
property, and a later write must find the row where it now is.
"""

from __future__ import annotations

import pytest

from repro import PropertyGraph, QueryEngine

MODES = pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])


def typed(rows) -> list:
    return sorted(
        (tuple((type(v).__name__, repr(v)) for v in row) for row in rows), key=repr
    )


def assert_exact(engine: QueryEngine, views) -> None:
    for view, query, parameters in views:
        direct = engine.evaluate(query, parameters, use_views=False)
        assert typed(view.rows()) == typed(direct.rows()), (query, parameters)


def register(engine: QueryEngine, query: str, *bindings):
    return [(engine.register(query, b), query, b) for b in bindings]


@MODES
def test_a_retyped_value_moves_a_row_between_bindings(batched):
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=batched)
    query = "MATCH (a:A) WHERE a.v = $x RETURN a"
    views = register(engine, query, {"x": 1}, {"x": True}, {"x": 1.0})
    a = graph.add_vertex(labels=["A"], properties={"v": 1})
    for value in (True, 1.0, True, 1, [1], [True], None, 1):
        graph.set_vertex_property(a, "v", value)
        assert_exact(engine, views)
    assert [len(view.rows()) for view, _, _ in views] == [1, 0, 1]


@MODES
def test_a_retyped_value_leaves_a_constant_selection(batched):
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=batched)
    views = register(engine, "MATCH (p:Post) WHERE p.score = 1 RETURN p.content", None)
    post = graph.add_vertex(labels=["Post"], properties={"score": 1.0, "content": "x"})
    graph.set_vertex_property(post, "score", True)
    assert views[0][0].rows() == []
    graph.set_vertex_property(post, "score", 1.0)
    assert views[0][0].rows() == [("x",)]
    assert_exact(engine, views)


@MODES
def test_a_retyped_endpoint_column_then_a_later_write(batched):
    """The shrunk program that stranded the row in the ``x = true`` view
    and then drove the ``x = 1`` view's multiplicity below zero."""
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=batched)
    query = "MATCH (a:N)-[:E]->(b:N) WHERE a.v = $x RETURN a, b"
    views = register(engine, query, {"x": 1}, {"x": True})
    a = graph.add_vertex(labels=["N"], properties={"v": True})
    graph.set_vertex_property(a, "v", 1)
    graph.add_edge(a, a, "E")
    assert [view.rows() for view, _, _ in views] == [[(a, a)], []]
    graph.set_vertex_property(a, "v", True)
    assert_exact(engine, views)
    graph.set_vertex_property(a, "v", float("nan"))
    assert [view.rows() for view, _, _ in views] == [[], []]


@MODES
def test_a_retyped_edge_property(batched):
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=batched)
    query = "MATCH (a)-[r:E]->(b) WHERE r.w = $x RETURN r"
    views = register(engine, query, {"x": 1}, {"x": True})
    a, b = graph.add_vertex(), graph.add_vertex()
    edge = graph.add_edge(a, b, "E", {"w": 1})
    for value in (True, 1, True):
        graph.set_edge_property(edge, "w", value)
        assert_exact(engine, views)
    assert [view.rows() for view, _, _ in views] == [[], [(edge,)]]


def test_a_batch_that_only_retypes_is_not_a_no_op():
    graph = PropertyGraph()
    engine = QueryEngine(graph)
    query = "MATCH (a:A) WHERE a.v = $x RETURN a"
    views = register(engine, query, {"x": 1}, {"x": True})
    a = graph.add_vertex(labels=["A"], properties={"v": 1})
    with engine.batch():
        graph.set_vertex_property(a, "v", 2)
        graph.set_vertex_property(a, "v", True)
    assert [view.rows() for view, _, _ in views] == [[], [(a,)]]
    with engine.batch():  # a round trip to the same typed value nets to nothing
        graph.set_vertex_property(a, "v", 1)
        graph.set_vertex_property(a, "v", True)
    assert_exact(engine, views)


def test_the_graph_keeps_a_retyped_list():
    graph = PropertyGraph()
    a = graph.add_vertex(properties={"v": [1]})
    graph.set_vertex_property(a, "v", [True])
    assert graph.vertex_property(a, "v")[0] is True
