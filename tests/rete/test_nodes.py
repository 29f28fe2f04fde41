"""Unit tests for individual Rete nodes, driven with hand-built batches."""

import pytest

from repro.algebra.expressions import (
    AggregateSpec,
    EvalContext,
    compile_expr,
    compile_predicate,
    compile_projection,
)
from repro.algebra.schema import AttrKind, Attribute, Schema
from repro.cypher import parse_expression
from repro.graph.values import ListValue, PathValue
from repro.rete.deltas import ColumnDelta, Delta
from repro.rete.nodes.aggregate import AggregateNode
from repro.rete.nodes.base import LEFT, RIGHT, Node
from repro.rete.nodes.join import (
    AntiJoinNode,
    JoinNode,
    LeftOuterJoinNode,
    UnionNode,
)
from repro.rete.nodes.transitive import EDGES, TransitiveClosureNode
from repro.rete.nodes.unary import (
    DedupNode,
    ProjectionNode,
    SelectionNode,
    UnwindNode,
)

CTX = EvalContext({})


class Sink(Node):
    """Collects emitted deltas and accumulates the net bag."""

    def __init__(self):
        super().__init__(Schema(()))
        self.deltas: list[ColumnDelta] = []
        self.bag: dict[tuple, int] = {}

    def apply(self, delta: ColumnDelta, side: int) -> None:
        assert type(delta) is ColumnDelta
        self.deltas.append(delta)
        for row, multiplicity in delta.items():
            count = self.bag.get(row, 0) + multiplicity
            if count:
                self.bag[row] = count
            else:
                del self.bag[row]


def delta(*items):
    """A batch of ``(row, multiplicity)`` occurrences, unconsolidated."""
    rows = [row for row, _ in items]
    return ColumnDelta.from_rows(rows, [m for _, m in items], len(rows[0]))


def value_schema(*names):
    return Schema([Attribute(n, AttrKind.VALUE) for n in names])


class TestDelta:
    def test_zero_entries_vanish(self):
        d = delta((("a",), 1), (("a",), -1)).to_delta()
        assert not d
        assert len(d) == 0

    def test_accumulation(self):
        d = delta((("a",), 1), (("a",), 2)).to_delta()
        assert dict(d.items()) == {("a",): 3}

    def test_negated(self):
        assert dict(Delta([(("a",), 2)]).negated().items()) == {("a",): -2}

    def test_update_into_empty_copies(self):
        source = Delta([(("a",), 2), (("b",), -1)])
        target = Delta()
        target.update(source)
        assert dict(target.items()) == {("a",): 2, ("b",): -1}
        # the fast path must copy, never alias, the source's storage
        target.add(("a",), -2)
        assert dict(source.items()) == {("a",): 2, ("b",): -1}

    def test_update_merges_and_cancels(self):
        target = Delta([(("a",), 1)])
        target.update(Delta([(("a",), -1), (("b",), 3)]))
        assert dict(target.items()) == {("b",): 3}


class TestSelection:
    def test_filters_both_signs(self):
        schema = value_schema("x")
        node = SelectionNode(schema, compile_predicate(parse_expression("x > 2"), schema), CTX)
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((1,), 1), ((5,), 2)), LEFT)
        node.apply(delta(((5,), -1)), LEFT)
        assert sink.bag == {(5,): 1}

    def test_unknown_predicate_filters_row(self):
        schema = value_schema("x")
        node = SelectionNode(schema, compile_predicate(parse_expression("x > 2"), schema), CTX)
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((None,), 1)), LEFT)
        assert sink.bag == {}


class TestProjection:
    def test_maps_and_merges(self):
        schema = value_schema("x")
        node = ProjectionNode(
            Schema([Attribute("y", AttrKind.VALUE)]),
            compile_projection([parse_expression("x % 2")], schema),
            CTX,
            (None,),
        )
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((1,), 1), ((3,), 1), ((2,), 1)), LEFT)
        assert sink.bag == {(1,): 2, (0,): 1}


class TestDedup:
    def test_emits_only_zero_crossings(self):
        node = DedupNode(value_schema("x"))
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta((("a",), 2)), LEFT)
        assert sink.bag == {("a",): 1}
        node.apply(delta((("a",), -1)), LEFT)
        assert sink.bag == {("a",): 1}  # still one copy upstream
        node.apply(delta((("a",), -1)), LEFT)
        assert sink.bag == {}

    def test_underflow_asserts(self):
        node = DedupNode(value_schema("x"))
        with pytest.raises(AssertionError):
            node.apply(delta((("a",), -1)), LEFT)


class TestUnwind:
    def test_list_expansion(self):
        schema = value_schema("xs")
        node = UnwindNode(
            value_schema("xs", "x"),
            compile_projection([parse_expression("xs")], schema),
            CTX,
        )
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((ListValue((1, 2)),), 2)), LEFT)
        assert sink.bag == {(ListValue((1, 2)), 1): 2, (ListValue((1, 2)), 2): 2}

    def test_null_and_scalar(self):
        schema = value_schema("xs")
        node = UnwindNode(
            value_schema("xs", "x"),
            compile_projection([parse_expression("xs")], schema),
            CTX,
        )
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((None,), 1), ((7,), 1)), LEFT)
        assert sink.bag == {(7, 7): 1}


def make_join():
    node = JoinNode(value_schema("k", "a", "b"), [0], [0], [1])
    sink = Sink()
    node.subscribe(sink)
    return node, sink


class TestJoin:
    def test_insert_both_sides(self):
        node, sink = make_join()
        node.apply(delta((("k1", "a1"), 1)), LEFT)
        assert sink.bag == {}
        node.apply(delta((("k1", "b1"), 1)), RIGHT)
        assert sink.bag == {("k1", "a1", "b1"): 1}

    def test_multiplicities_multiply(self):
        node, sink = make_join()
        node.apply(delta((("k", "a"), 2)), LEFT)
        node.apply(delta((("k", "b"), 3)), RIGHT)
        assert sink.bag == {("k", "a", "b"): 6}

    def test_retraction_cascades(self):
        node, sink = make_join()
        node.apply(delta((("k", "a"), 1)), LEFT)
        node.apply(delta((("k", "b"), 1)), RIGHT)
        node.apply(delta((("k", "a"), -1)), LEFT)
        assert sink.bag == {}

    def test_memory_size(self):
        node, _ = make_join()
        node.apply(delta((("k", "a"), 1)), LEFT)
        node.apply(delta((("k", "b"), 1)), RIGHT)
        assert node.memory_size() == 2

    def test_restricted_state_shows_stored_objects_only(self):
        """Whatever side a restriction starts from, and whatever equal-but-
        differently-typed value it carries, the rows are the full fold's:
        the left memory's key, each side's own payload cells."""
        node, _ = make_join()
        node.apply(delta(((1, "a"), 1), ((2, "a"), 1)), LEFT)
        node.apply(delta(((1.0, 7), 1), ((2, 8), 1)), RIGHT)
        full = [repr(row) for row, _ in node.state_delta()]
        assert full == ["(1, 'a', 7)", "(2, 'a', 8)"]
        for restriction in [
            ((0, True),),  # the join key, probed directly
            ((0, 1.0), (1, "a")),  # key + left payload
            ((2, 7.0),),  # right payload: survivors probe the left memory
        ]:
            got = [repr(row) for row, _ in node.state_delta(restriction)]
            assert got == full[:1], restriction
        # pairs on both sides: driven from the left, the right pair is the
        # caller's predicate's business — a superset, same objects
        got = [repr(row) for row, _ in node.state_delta(((1, "a"), (2, 7.0)))]
        assert got == full


class TestAntiJoin:
    def make(self):
        node = AntiJoinNode(value_schema("k", "a"), [0], [0])
        sink = Sink()
        node.subscribe(sink)
        return node, sink

    def test_left_passes_without_right(self):
        node, sink = self.make()
        node.apply(delta((("k", "a"), 1)), LEFT)
        assert sink.bag == {("k", "a"): 1}

    def test_right_arrival_retracts(self):
        node, sink = self.make()
        node.apply(delta((("k", "a"), 1)), LEFT)
        node.apply(delta((("k",), 1)), RIGHT)
        assert sink.bag == {}

    def test_right_departure_restores(self):
        node, sink = self.make()
        node.apply(delta((("k", "a"), 1)), LEFT)
        node.apply(delta((("k",), 2)), RIGHT)
        node.apply(delta((("k",), -2)), RIGHT)
        assert sink.bag == {("k", "a"): 1}

    def test_left_blocked_when_right_present(self):
        node, sink = self.make()
        node.apply(delta((("k",), 1)), RIGHT)
        node.apply(delta((("k", "a"), 1)), LEFT)
        assert sink.bag == {}

    def test_memory_cells_counts_both_memories(self):
        node, _ = self.make()
        assert node.memory_cells() == 0
        node.apply(delta((("k", "a"), 1), (("j", "b"), 1)), LEFT)
        node.apply(delta((("k",), 1)), RIGHT)
        # two 2-wide left rows plus one 1-wide right key
        assert node.memory_cells() == 5
        assert node.memory_size() == 3


class TestLeftOuterJoin:
    def make(self):
        node = LeftOuterJoinNode(value_schema("k", "a", "b"), [0], [0], [1])
        node.configure_nulls(1)
        sink = Sink()
        node.subscribe(sink)
        return node, sink

    def test_unmatched_left_padded(self):
        node, sink = self.make()
        node.apply(delta((("k", "a"), 1)), LEFT)
        assert sink.bag == {("k", "a", None): 1}

    def test_right_arrival_swaps_padding_for_match(self):
        node, sink = self.make()
        node.apply(delta((("k", "a"), 1)), LEFT)
        node.apply(delta((("k", "b"), 1)), RIGHT)
        assert sink.bag == {("k", "a", "b"): 1}

    def test_right_departure_restores_padding(self):
        node, sink = self.make()
        node.apply(delta((("k", "a"), 1)), LEFT)
        node.apply(delta((("k", "b"), 1)), RIGHT)
        node.apply(delta((("k", "b"), -1)), RIGHT)
        assert sink.bag == {("k", "a", None): 1}

    def test_matched_left_insert(self):
        node, sink = self.make()
        node.apply(delta((("k", "b"), 1)), RIGHT)
        node.apply(delta((("k", "a"), 1)), LEFT)
        assert sink.bag == {("k", "a", "b"): 1}


class TestUnion:
    def test_permutes_right(self):
        node = UnionNode(value_schema("a", "b"), (1, 0))
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((1, 2), 1)), LEFT)
        node.apply(delta(((9, 8), 1)), RIGHT)
        assert sink.bag == {(1, 2): 1, (8, 9): 1}

    def test_identity_permutation_fast_path(self):
        node = UnionNode(value_schema("a", "b"), (0, 1))
        assert node._identity
        sink = Sink()
        node.subscribe(sink)
        node.apply(delta(((1, 2), 1)), LEFT)
        node.apply(delta(((9, 8), 2), ((1, 2), -1)), RIGHT)
        assert sink.bag == {(9, 8): 2}


class TestAggregateNode:
    def make(self, keys, specs, schema_in):
        arg_fns = [
            compile_expr(s.argument, schema_in) if s.argument is not None else None
            for s in specs
        ]
        key_fns = [compile_expr(parse_expression(k), schema_in) for k in keys]
        node = AggregateNode(value_schema("out"), key_fns, specs, arg_fns, CTX)
        sink = Sink()
        node.subscribe(sink)
        return node, sink

    def test_global_count_starts_at_zero(self):
        node, sink = self.make([], [AggregateSpec("count", None, False, "n")], value_schema("x"))
        node.initialize()
        assert sink.bag == {(0,): 1}
        node.apply(delta(((1,), 2)), LEFT)
        assert sink.bag == {(2,): 1}
        node.apply(delta(((1,), -2)), LEFT)
        assert sink.bag == {(0,): 1}

    def test_grouped_sum_appears_and_disappears(self):
        schema = value_schema("g", "v")
        node, sink = self.make(
            ["g"],
            [AggregateSpec("sum", parse_expression("v"), False, "s")],
            schema,
        )
        node.apply(delta((("a", 2), 1), (("a", 3), 1), (("b", 1), 1)), LEFT)
        assert sink.bag == {("a", 5): 1, ("b", 1): 1}
        node.apply(delta((("b", 1), -1)), LEFT)
        assert sink.bag == {("a", 5): 1}

    def test_no_spurious_emission_when_result_unchanged(self):
        schema = value_schema("g", "v")
        node, sink = self.make(
            ["g"],
            [AggregateSpec("min", parse_expression("v"), False, "m")],
            schema,
        )
        node.apply(delta((("a", 1), 1)), LEFT)
        emitted = len(sink.deltas)
        node.apply(delta((("a", 5), 1)), LEFT)  # min unchanged
        assert len(sink.deltas) == emitted  # empty deltas are not delivered


class TestTransitiveClosureNode:
    def make(self, min_hops=1, max_hops=None, emit_path=True, direction="out"):
        schema = Schema(
            [
                Attribute("s", AttrKind.VERTEX),
                Attribute("c", AttrKind.VERTEX),
                Attribute("t", AttrKind.PATH),
            ]
        )
        node = TransitiveClosureNode(schema, 0, direction, min_hops, max_hops, emit_path)
        sink = Sink()
        node.subscribe(sink)
        return node, sink

    def edge(self, s, e, t, sign=1):
        return delta((((s, e, t)), sign))

    def test_left_then_edges(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        assert sink.bag == {(1, 2, PathValue((1, 2), (10,))): 1}

    def test_edges_then_left(self):
        node, sink = self.make()
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(delta(((1,), 1)), LEFT)
        assert sink.bag == {(1, 2, PathValue((1, 2), (10,))): 1}

    def test_transitive_extension(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(self.edge(2, 11, 3), EDGES)
        # trails from source 1: [1,2] and [1,2,3]
        assert sink.bag == {
            (1, 2, PathValue((1, 2), (10,))): 1,
            (1, 3, PathValue((1, 2, 3), (10, 11))): 1,
        }

    def test_bridge_edge_combines_prefix_and_suffix(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(self.edge(3, 12, 4), EDGES)
        node.apply(self.edge(2, 11, 3), EDGES)  # bridges 1→2 and 3→4
        ends = {row[1] for row in sink.bag}
        assert ends == {2, 3, 4}

    def test_edge_deletion_retracts_all_containing_trails(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(self.edge(2, 11, 3), EDGES)
        node.apply(self.edge(1, 10, 2, sign=-1), EDGES)
        assert sink.bag == {}  # both trails contained edge 10 (2→3 unreachable)

    def test_deletion_keeps_independent_trails(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(self.edge(1, 11, 3), EDGES)
        node.apply(self.edge(1, 10, 2, sign=-1), EDGES)
        assert sink.bag == {(1, 3, PathValue((1, 3), (11,))): 1}

    def test_min_hops_filters_output_not_state(self):
        node, sink = self.make(min_hops=2)
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        assert sink.bag == {}
        node.apply(self.edge(2, 11, 3), EDGES)
        assert sink.bag == {(1, 3, PathValue((1, 2, 3), (10, 11))): 1}

    def test_max_hops_caps_trails(self):
        node, sink = self.make(max_hops=1)
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(self.edge(2, 11, 3), EDGES)
        assert len(sink.bag) == 1

    def test_zero_hops_emitted_per_left_row(self):
        node, sink = self.make(min_hops=0)
        node.apply(delta(((1,), 1)), LEFT)
        assert sink.bag == {(1, 1, PathValue((1,), ())): 1}

    def test_cycle_generates_finite_trails(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(self.edge(2, 11, 1), EDGES)
        # trails from 1: [1,2] and [1,2,1] — edge-distinctness terminates it
        assert len(sink.bag) == 2

    def test_left_retraction(self):
        node, sink = self.make()
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        node.apply(delta(((1,), -1)), LEFT)
        assert sink.bag == {}

    def test_left_multiplicity_scales_output(self):
        node, sink = self.make()
        node.apply(delta(((1,), 2)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)
        assert sink.bag == {(1, 2, PathValue((1, 2), (10,))): 2}

    def test_direction_in(self):
        node, sink = self.make(direction="in")
        node.apply(delta(((2,), 1)), LEFT)
        node.apply(self.edge(1, 10, 2), EDGES)  # canonical 1→2, traverse 2→1
        assert sink.bag == {(2, 1, PathValue((2, 1), (10,))): 1}

    def test_direction_both_self_loop_single_arc(self):
        node, sink = self.make(direction="both")
        node.apply(delta(((1,), 1)), LEFT)
        node.apply(self.edge(1, 10, 1), EDGES)
        assert sink.bag == {(1, 1, PathValue((1, 1), (10,))): 1}

    def test_null_source_ignored(self):
        node, sink = self.make(min_hops=0)
        node.apply(delta(((None,), 1)), LEFT)
        assert sink.bag == {}
