"""σ, π and ω on columnar batches: same answers, no row tuples.

The stateless unary nodes evaluate a :class:`ColumnDelta` through the
generated column form of its expressions.  Pinned here: a node's
consolidated answer to a ``ColumnDelta`` (duplicates, cancelling ±1 pairs,
empty and zero-width batches) equals a spec built row by row from the row
form of the same expressions; a pass-everything σ and a rename-only π hand
the input's own lists on; and nobody mutates a batch they were handed.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    EvalContext,
    compile_predicate,
    compile_projection,
)
from repro.algebra.schema import AttrKind, Attribute, Schema
from repro.cypher import parse_expression
from repro.graph.values import ListValue
from repro.rete.deltas import ColumnDelta, Delta
from repro.rete.nodes.base import LEFT
from repro.rete.nodes.unary import ProjectionNode, SelectionNode, UnwindNode

CTX = EvalContext({"limit": 1})


def schema_of(*names):
    return Schema([Attribute(name, AttrKind.VALUE) for name in names])


IN = schema_of("x", "y")


def selection(text):
    return SelectionNode(IN, compile_predicate(parse_expression(text), IN), CTX)


def projection(*texts):
    items = compile_projection([parse_expression(t) for t in texts], IN)
    return ProjectionNode(schema_of(*(f"o{i}" for i in range(len(texts)))), items, CTX, ())


def unwind(text):
    items = compile_projection([parse_expression(text)], IN)
    return UnwindNode(schema_of("x", "y", "element"), items, CTX)


NODES = {
    "σ some": lambda: selection("x > $limit"),
    "σ all": lambda: selection("x = x OR x IS NULL"),
    "σ none": lambda: selection("x <> x"),
    "π rename": lambda: projection("y", "x"),
    "π computed": lambda: projection("x", "x + 1", "y"),
    "π constant": lambda: projection("1", "$limit"),
    "π nothing": lambda: projection(),
    "ω list": lambda: unwind("y"),
    "ω computed": lambda: unwind("[x, x]"),
}

cells = st.sampled_from([None, 0, 1, 2, 3, ListValue((1, 2)), ListValue(())])
occurrences = st.lists(st.tuples(st.tuples(cells, cells), st.sampled_from([1, -1, 2])), max_size=6)


def row_spec(node, batch):
    """What *node* answers for the ``(row, multiplicity)`` occurrences of
    *batch*, built row by row from the row form of its expressions."""
    out = Delta()
    for row, multiplicity in batch:
        if isinstance(node, SelectionNode):
            if node.predicate.row(row, CTX) is True:
                out.add(row, multiplicity)
        elif isinstance(node, ProjectionNode):
            out.add(node.items.row(row, CTX), multiplicity)
        else:
            (value,) = node.expression.row(row, CTX)
            if value is not None:
                for element in value if isinstance(value, ListValue) else [value]:
                    out.add(row + (element,), multiplicity)
    return out


class TestRowAndColumnBatchesAgree:
    @pytest.mark.parametrize("name", NODES)
    @given(batch=occurrences)
    @settings(max_examples=60, deadline=None)
    def test_same_content_same_output(self, name, batch):
        # `batch` repeats rows and carries cancelling ±1 pairs on purpose:
        # a ColumnDelta is unconsolidated, the spec nets them out as it goes
        rows = [row for row, _ in batch]
        mults = [m for _, m in batch]
        node = NODES[name]()
        out = node.transform(ColumnDelta.from_rows(rows, mults, 2), LEFT)
        assert type(out) is ColumnDelta
        assert out.to_delta() == row_spec(node, batch)

    @pytest.mark.parametrize("name", NODES)
    def test_empty_batch(self, name):
        node = NODES[name]()
        out = node.transform(ColumnDelta.from_rows([], [], 2), LEFT)
        assert type(out) is ColumnDelta and len(out) == 0
        assert len(out.columns) == out.width == len(node.schema.names)

    def test_zero_width_batch(self):
        # unit → π[1 AS one]: no input columns at all, n comes from mults
        empty = Schema([])
        items = compile_projection([parse_expression("1"), parse_expression("$limit")], empty)
        node = ProjectionNode(schema_of("a", "b"), items, CTX, (None, None))
        out = node.transform(ColumnDelta([], [1, -1, 1], 0), LEFT)
        assert out.columns == [[1, 1, 1], [1, 1, 1]] and out.mults == [1, -1, 1]
        always = SelectionNode(empty, compile_predicate(parse_expression("$limit = 1"), empty), CTX)
        assert always.transform(ColumnDelta([], [2, 3], 0), LEFT).mults == [2, 3]


class TestNoRowTuplesAreBuilt:
    def batch(self):
        return ColumnDelta([[1, 2, 3], ["a", "b", "c"]], [1, 1, -1], 2)

    def test_a_pass_everything_selection_returns_its_input(self):
        batch = self.batch()
        assert selection("x >= $limit").transform(batch, LEFT) is batch

    def test_a_rename_only_projection_hands_the_input_lists_on(self):
        batch = self.batch()
        out = projection("y", "x", "y").transform(batch, LEFT)
        assert out.columns[0] is batch.columns[1] and out.columns[2] is batch.columns[1]
        assert out.columns[1] is batch.columns[0]
        assert out.mults is batch.mults and out.width == 3

    def test_a_computed_item_leaves_the_bare_ones_shared(self):
        batch = self.batch()
        out = projection("x", "x + 1").transform(batch, LEFT)
        assert out.columns[0] is batch.columns[0]
        assert out.columns[1] == [2, 3, 4]

    def test_column_forms_never_materialise_rows(self, monkeypatch):
        def no_rows(self):
            raise AssertionError("a unary node asked a ColumnDelta for its rows")

        monkeypatch.setattr(ColumnDelta, "rows", no_rows)
        batch = ColumnDelta([[1, 2, 3], [ListValue((7, 8)), None, 9]], [1, 2, -1], 2)
        assert selection("x > $limit").transform(batch, LEFT).columns == [[2, 3], [None, 9]]
        assert projection("x * 2").transform(batch, LEFT).columns == [[2, 4, 6]]
        out = unwind("y").transform(batch, LEFT)
        assert out.columns == [[1, 1, 3], [ListValue((7, 8)), ListValue((7, 8)), 9], [7, 8, 9]]
        assert out.mults == [1, 1, -1]


class TestBatchesAreImmutableOnceEmitted:
    """The contract in ``ColumnDelta``'s docstring: lists may be shared
    between an input and an output batch, so no node mutates what it is
    handed — neither the batch it receives nor (downstream) the one it emits."""

    @pytest.mark.parametrize("name", NODES)
    def test_transform_leaves_its_input_untouched(self, name):
        batch = ColumnDelta([[1, 2, 3, 1], [ListValue((1,)), 0, None, 5]], [1, -1, 2, 1], 2)
        before = copy.deepcopy((batch.columns, batch.mults, batch.width))
        NODES[name]().transform(batch, LEFT)
        assert (batch.columns, batch.mults, batch.width) == before

    def test_consumers_of_shared_lists_do_not_disturb_each_other(self):
        # one σ(keeps all) feeds π(bare columns) and then every kind of stateful
        # consumer, so the same column lists reach all of them; had any consumer
        # mutated what it was handed, a sibling view would leave the oracle
        from repro import PropertyGraph, QueryEngine

        graph = PropertyGraph()
        engine = QueryEngine(graph, batch_transactions=True)
        queries = (
            "MATCH (p:P) WHERE p.x >= 0 RETURN p.x AS x, p.y AS y",
            "MATCH (p:P) WHERE p.x >= 0 RETURN DISTINCT p.y AS y",
            "MATCH (p:P) WHERE p.x >= 0 RETURN p.y AS y, count(*) AS c",
            "MATCH (p:P)-[:E]->(q:P) WHERE p.x >= 0 RETURN p.y AS a, q.y AS b",
            "MATCH (p:P) WHERE p.x >= 0 OPTIONAL MATCH (p)-[:E]->(q) RETURN p.x AS x, q.y AS y",
        )
        views = [engine.register(query) for query in queries]
        with graph.transaction():
            ids = [graph.add_vertex(["P"], {"x": i, "y": i % 3}) for i in range(12)]
            for a, b in zip(ids, ids[1:]):
                graph.add_edge(a, b, "E")
        with graph.transaction():
            graph.set_vertex_property(ids[0], "y", 7)
            graph.remove_edge(next(iter(graph.out_edges(ids[3]))))
        for query, view in zip(queries, views):
            assert view.multiset() == engine.evaluate(query, use_views=False).multiset()
