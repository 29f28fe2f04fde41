"""Property-based tests for the incremental transitive-closure node.

The node's contract: after any interleaving of left-row and edge insertions
and deletions, its output equals the from-scratch trail enumeration
(`repro.eval.enumerate_trails`) from the sources that hold a left row —
for every direction mode, hop bound and output shape.  Its store holds
exactly the trails of those *live* sources, and every arc whose tail is not
live sits in the arc index instead, never both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.schema import AttrKind, Attribute, Schema
from repro.eval import enumerate_trails
from repro.graph import PropertyGraph
from repro.graph.values import PathValue
from repro.rete.deltas import ColumnDelta
from repro.rete.nodes.base import LEFT, Node
from repro.rete.nodes.transitive import ARC_CELLS, EDGES, TransitiveClosureNode


class Sink(Node):
    def __init__(self):
        super().__init__(Schema(()))
        self.bag: dict[tuple, int] = {}

    def apply(self, delta, side: int) -> None:
        for row, multiplicity in delta.items():
            count = self.bag.get(row, 0) + multiplicity
            if count:
                self.bag[row] = count
            else:
                del self.bag[row]


def make_node(direction="out", min_hops=1, max_hops=None, emit_path=True):
    """A ⋈* over left rows ``(s, tag)``: a source can carry two rows."""
    columns = [
        Attribute("s", AttrKind.VERTEX),
        Attribute("tag", AttrKind.VALUE),
        Attribute("end", AttrKind.VERTEX),
    ]
    if emit_path:
        columns.append(Attribute("path", AttrKind.PATH))
    node = TransitiveClosureNode(
        Schema(columns), 0, direction, min_hops, max_hops, emit_path
    )
    sink = Sink()
    node.subscribe(sink)
    return node, sink


def feed(node, items, side, columnar=False):
    """Apply ``(row, multiplicity)`` *items* as one batch: consolidated
    first, or (*columnar*) occurrence by occurrence as given."""
    rows = [row for row, _ in items]
    delta = ColumnDelta.from_rows(rows, [m for _, m in items], len(rows[0]))
    if not columnar:
        delta = ColumnDelta.from_delta(delta.to_delta(), delta.width)
    node.apply(delta, side)


class Shadow:
    """A graph and a left bag driven alongside the node."""

    def __init__(self):
        self.graph = PropertyGraph()
        self.vertices = [self.graph.add_vertex() for _ in range(5)]
        self.left: dict[tuple, int] = {}

    def live(self) -> set[int]:
        return {row[0] for row in self.left}

    def add_left(self, node, row, multiplicity, columnar=False):
        feed(node, [(row, multiplicity)], LEFT, columnar)
        self.fold_left(row, multiplicity)

    def fold_left(self, row, multiplicity):
        count = self.left.get(row, 0) + multiplicity
        if count:
            self.left[row] = count
        else:
            del self.left[row]

    def add_edge(self, node, src, tgt, columnar=False):
        edge = self.graph.add_edge(src, tgt, "T")
        feed(node, [((src, edge, tgt), 1)], EDGES, columnar)
        return edge

    def remove_edge(self, node, edge, columnar=False):
        src, tgt = self.graph.endpoints(edge)
        self.graph.remove_edge(edge)
        feed(node, [((src, edge, tgt), -1)], EDGES, columnar)


def trails(graph, sources, direction, min_hops, max_hops):
    return {
        path
        for source in sources
        for _, path in enumerate_trails(
            graph, source, ("T",), direction, min_hops, max_hops
        )
    }


def expected_rows(shadow, node):
    out: dict[tuple, int] = {}
    for row, multiplicity in shadow.left.items():
        for end, path in enumerate_trails(
            shadow.graph, row[0], ("T",), node.direction, node.min_hops, node.max_hops
        ):
            key = row + ((end, path) if node.emit_path else (end,))
            out[key] = out.get(key, 0) + multiplicity
    return out


def expected_arcs(shadow, node):
    """The arc index the node must hold: every arc with a tail not live."""
    arcs: dict[int, dict[int, int]] = {}
    if node.max_hops == 0:
        return arcs
    live = shadow.live()
    for edge in shadow.graph.edges():
        s, t = shadow.graph.endpoints(edge)
        pairs = {"out": [(s, t)], "in": [(t, s)], "both": [(s, t), (t, s)]}
        for tail, head in pairs[node.direction]:
            if tail not in live:
                arcs.setdefault(tail, {})[edge] = head
    return arcs


def assert_store_invariants(node, shadow):
    live = shadow.live()
    assert set(node.left_index) == live
    stored = {t for bucket in node.trails_by_start.values() for t in bucket}
    for index in (node.trails_by_end, node.trails_by_edge):
        assert {t for bucket in index.values() for t in bucket} == stored
    assert all(bucket for bucket in node.trails_by_start.values())
    assert all(bucket for bucket in node.trails_by_end.values())
    # every stored trail starts at a live source, and those are all of them
    assert all(trail.start in live for trail in stored)
    hops = node.max_hops
    assert stored == trails(shadow.graph, live, node.direction, 1, hops)
    # no arc is held both in the arc index and as a one-hop trail
    for trail in stored:
        if len(trail) == 1:
            assert trail.edges[0] not in node.arcs.get(trail.start, {})
    assert not live.intersection(node.arcs)
    assert node.arcs == expected_arcs(shadow, node)


#: One step of a stream: (kind, a, b, pick, columnar).  Kinds 0–1 insert
#: left row ``(a, b % 2)``; 2 retracts a held left row; 3 swaps a held row
#: for its sibling tag in one delta; 4–7 insert edge a → b (a == b is a
#: self-loop); 8 deletes a live edge; 9 deletes one and inserts another in
#: one delta.
steps = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 99),
        st.booleans(),
    ),
    max_size=24,
)

#: live edges at most — keeps unbounded trail counts small
EDGE_CAP = 6


def run_stream(node, sink, stream):
    shadow = Shadow()
    ids = shadow.vertices
    live_edges: list[int] = []
    for kind, a, b, pick, columnar in stream:
        held = sorted(shadow.left)
        if kind <= 1 or (kind <= 3 and not held):
            shadow.add_left(node, (ids[a], b % 2), 1, columnar)
        elif kind == 2:
            shadow.add_left(node, held[pick % len(held)], -1, columnar)
        elif kind == 3:
            row = held[pick % len(held)]
            sibling = (row[0], 1 - row[1])
            feed(node, [(row, -1), (sibling, 1)], LEFT, columnar)
            shadow.fold_left(row, -1)
            shadow.fold_left(sibling, 1)
        elif kind <= 7 or not live_edges:
            if len(live_edges) < EDGE_CAP:
                live_edges.append(shadow.add_edge(node, ids[a], ids[b], columnar))
        elif kind == 8:
            shadow.remove_edge(node, live_edges.pop(pick % len(live_edges)), columnar)
        else:
            gone = live_edges.pop(pick % len(live_edges))
            src, tgt = shadow.graph.endpoints(gone)
            shadow.graph.remove_edge(gone)
            new = shadow.graph.add_edge(ids[a], ids[b], "T")
            feed(
                node,
                [((src, gone, tgt), -1), ((ids[a], new, ids[b]), 1)],
                EDGES,
                columnar,
            )
            live_edges.append(new)
        assert sink.bag == expected_rows(shadow, node)
        assert_store_invariants(node, shadow)
    return shadow


@settings(max_examples=300, deadline=None)
@given(
    stream=steps,
    direction=st.sampled_from(["out", "in", "both"]),
    min_hops=st.sampled_from([0, 1, 2]),
    max_hops=st.sampled_from([None, 0, 1, 2, 4]),
    emit_path=st.booleans(),
)
def test_node_matches_trail_enumeration(
    stream, direction, min_hops, max_hops, emit_path
):
    node, sink = make_node(direction, min_hops, max_hops, emit_path)
    run_stream(node, sink, stream)


def test_source_dying_and_returning_rewalks_its_trails():
    node, sink = make_node(max_hops=None)
    shadow = Shadow()
    a, b, c, _, _ = shadow.vertices
    shadow.add_edge(node, a, b)
    shadow.add_edge(node, b, c)
    assert node.arcs and not node.trails_by_start  # nothing live yet
    shadow.add_left(node, (a, 0), 1)
    shadow.add_left(node, (a, 1), 1)  # two rows, one activation
    assert len(node.trails_by_start[a]) == 2
    assert sink.bag == expected_rows(shadow, node)
    shadow.add_left(node, (a, 0), -1)
    assert len(node.trails_by_start[a]) == 2  # still live through (a, 1)
    shadow.add_left(node, (a, 1), -1)
    assert sink.bag == {} and node.trails_by_start == {}
    assert node.arcs == expected_arcs(shadow, node)
    shadow.add_left(node, (a, 0), 1, columnar=True)
    assert sink.bag == expected_rows(shadow, node)
    assert_store_invariants(node, shadow)


def test_arc_from_a_live_tail_is_only_a_one_hop_trail():
    node, _ = make_node(direction="both", max_hops=2)
    shadow = Shadow()
    a, b, _, _, _ = shadow.vertices
    shadow.add_left(node, (a, 0), 1)
    edge = shadow.add_edge(node, a, b)
    # a → b is a's one-hop trail; only b → a (tail b, not live) is an arc
    assert node.arcs == {b: {edge: a}}
    assert PathValue((a, b), (edge,)) in node.trails_by_start[a]
    assert_store_invariants(node, shadow)


@pytest.mark.parametrize("direction", ["out", "in", "both"])
def test_arcs_without_a_live_source_count_three_cells_each(direction):
    """With no live source every arc sits in the arc index, where it is
    counted once and holds tail, edge and head."""
    node, _ = make_node(direction=direction, emit_path=False)
    shadow = Shadow()
    a, b, c, _, _ = shadow.vertices
    for src, tgt in ((a, b), (b, c), (c, c)):
        edge = shadow.graph.add_edge(src, tgt, "T")
        feed(node, [((src, edge, tgt), 1)], EDGES)
    arcs = sum(map(len, expected_arcs(shadow, node).values()))
    assert arcs == (5 if direction == "both" else 3)
    assert node.memory_size() == arcs
    assert node.memory_cells() == ARC_CELLS * arcs


@settings(max_examples=60, deadline=None)
@given(stream=steps, direction=st.sampled_from(["out", "in", "both"]))
def test_insert_then_delete_everything_leaves_empty_store(stream, direction):
    node, sink = make_node(direction=direction, max_hops=4)
    shadow = run_stream(node, sink, stream)
    for edge in list(shadow.graph.edges()):
        shadow.remove_edge(node, edge)
    for row, multiplicity in list(shadow.left.items()):
        shadow.add_left(node, row, -multiplicity)
    assert sink.bag == {}
    assert node.left_index == {}
    assert node.trails_by_start == {}
    assert node.trails_by_end == {}
    assert node.trails_by_edge == {}
    assert node.arcs == {}
