"""Pickle round trips: the values the engine consumes and hands out.

Graph events, ``on_change`` deltas in row and column form (whose rows may
carry the frozen graph values ``ListValue``/``MapValue``/``PathValue``),
consolidated :class:`~repro.rete.batch.CoalescedBatch` windows and every
node's ``state_delta()`` are plain values: a caller can pickle them to
persist or ship a change stream.  Each class here serialises one layer and
requires the round trip to be lossless — including *replay parity*: a
deserialised batch, applied to a graph that holds the window-start state,
rebuilds the window-end graph, and every live Rete node's serialised
``state_delta()`` equals its live memory.  The frozen values themselves are
round-tripped in ``tests/graph/test_values.py``.
"""

import pickle
import random

import pytest

from repro import ListValue, MapValue, PathValue, PropertyGraph, QueryEngine
from repro.graph import events as ev
from repro.rete.batch import BatchAccumulator, CoalescedBatch
from repro.rete.deltas import ColumnDelta, Delta, as_row_delta

from .test_sharing import _random_op


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _replay(graph: PropertyGraph, batch: CoalescedBatch) -> None:
    """Apply a consolidated batch's net records to *graph*.

    Edge removals run before vertex removals (the store forbids dangling
    edges), vertex additions before edge additions (endpoints must exist),
    and transitions in between; ``_restore_vertex``/``_restore_edge`` keep
    the source's entity ids.
    """
    vertex_events, edge_events = batch.vertex_events, batch.edge_events
    for event in edge_events:
        if isinstance(event, ev.EdgeRemoved):
            graph.remove_edge(event.edge_id)
    for event in vertex_events:
        if isinstance(event, ev.VertexRemoved):
            graph.remove_vertex(event.vertex_id)
    for event in vertex_events:
        if isinstance(event, ev.VertexAdded):
            graph._restore_vertex(event.vertex_id, event.labels, event.properties)
        elif isinstance(event, ev.VertexChanged):
            for label in event.after_labels - event.before_labels:
                graph.add_label(event.vertex_id, label)
            for label in event.before_labels - event.after_labels:
                graph.remove_label(event.vertex_id, label)
            for key in ev.changed_property_keys(
                event.before_properties, event.after_properties
            ):
                graph.set_vertex_property(
                    event.vertex_id, key, event.after_properties.get(key)
                )
    for event in edge_events:
        if isinstance(event, ev.EdgeAdded):
            graph._restore_edge(
                event.edge_id,
                event.source,
                event.target,
                event.edge_type,
                event.properties,
            )
        elif isinstance(event, ev.EdgeChanged):
            for key in ev.changed_property_keys(
                event.before_properties, event.after_properties
            ):
                graph.set_edge_property(
                    event.edge_id, key, event.after_properties.get(key)
                )


EVENTS = [
    ev.VertexAdded(1, frozenset({"Post"}), {"lang": "en"}),
    ev.VertexRemoved(1, frozenset({"Post"}), {"lang": "en"}),
    ev.VertexLabelAdded(1, "Comm"),
    ev.VertexLabelRemoved(1, "Comm"),
    ev.VertexPropertySet(1, "lang", "en", "de"),
    ev.VertexChanged(
        1, frozenset({"Post"}), {"lang": "en"}, frozenset({"Comm"}), {"lang": None}
    ),
    ev.EdgeAdded(5, 1, 2, "REPLY", {"w": 1}),
    ev.EdgeRemoved(5, 1, 2, "REPLY", {"w": 1}),
    ev.EdgePropertySet(5, "w", 1, 2),
    ev.EdgeChanged(5, 1, 2, "REPLY", {"w": 1}, {"w": 2}),
]


class TestEventRoundTrips:
    @pytest.mark.parametrize(
        "event", EVENTS, ids=[type(e).__name__ for e in EVENTS]
    )
    def test_event(self, event):
        restored = roundtrip(event)
        assert restored == event
        assert type(restored) is type(event)


class TestDeltaRoundTrips:
    def test_delta_with_frozen_value_rows(self):
        delta = Delta(
            [
                ((1, "en"), 2),
                ((MapValue({"k": 1}), ListValue((1, 2))), -1),
                ((PathValue((1, 2), (9,)),), 3),
            ]
        )
        restored = roundtrip(delta)
        assert restored == delta
        assert dict(restored.items()) == dict(delta.items())

    def test_column_delta(self):
        delta = Delta([((1, "en"), 1), ((2, "de"), -2), ((3, None), 1)])
        column = ColumnDelta.from_delta(delta, width=2)
        restored = roundtrip(column)
        assert restored.width == column.width
        assert restored.mults == column.mults
        assert restored.columns == column.columns
        assert restored.to_delta() == delta


class TestBatchReplayParity:
    """A pickled batch must carry a replica from the window-start graph
    to the window-end graph."""

    def _assert_equal_graphs(self, left: PropertyGraph, right: PropertyGraph):
        left_vertices = {
            v: (left.labels_of(v), dict(left.vertex_properties(v)))
            for v in left.vertices()
        }
        right_vertices = {
            v: (right.labels_of(v), dict(right.vertex_properties(v)))
            for v in right.vertices()
        }
        assert left_vertices == right_vertices
        left_edges = {
            e: (left.endpoints(e), left.type_of(e), dict(left.edge_properties(e)))
            for e in left.edges()
        }
        right_edges = {
            e: (
                right.endpoints(e),
                right.type_of(e),
                dict(right.edge_properties(e)),
            )
            for e in right.edges()
        }
        assert left_edges == right_edges

    def test_random_batches_replay_onto_replica(self):
        rng = random.Random(900)
        source, replica = PropertyGraph(), PropertyGraph()
        for window in range(25):
            accumulator = BatchAccumulator(source)
            source.subscribe(accumulator.record)
            try:
                for _ in range(rng.randint(1, 6)):
                    vertices = list(source.vertices())
                    edges = list(source.edges())
                    _random_op(rng, vertices, edges)(source)
            finally:
                source.unsubscribe(accumulator.record)
            batch = accumulator.consolidate()
            restored = roundtrip(batch)
            assert restored.vertex_events == batch.vertex_events
            assert restored.edge_events == batch.edge_events
            assert restored.vertex_before_labels == batch.vertex_before_labels
            assert (
                restored.vertex_before_properties
                == batch.vertex_before_properties
            )
            _replay(replica, restored)
            self._assert_equal_graphs(source, replica)
        # ids stay in lockstep too: fresh entities get identical ids
        assert source.add_vertex() == replica.add_vertex()


class TestStateDeltaReplayParity:
    """Every node's pickled ``state_delta()`` equals its live memory."""

    #: covers input, selection, join (inner/anti via OPTIONAL-free fragment),
    #: dedup, aggregate, transitive and production nodes
    QUERIES = (
        "MATCH (p:Post) RETURN p.lang AS lang",
        "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
        "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT p",
        "MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c",
    )

    def _populate(self, graph, rng):
        for _ in range(40):
            vertices = list(graph.vertices())
            edges = list(graph.edges())
            _random_op(rng, vertices, edges)(graph)

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "rows"])
    def test_every_node_state_survives_the_wire(self, columnar):
        graph = PropertyGraph()
        engine = QueryEngine(graph, columnar_deltas=columnar)
        views = [engine.register(query) for query in self.QUERIES]
        views.append(
            engine.register(
                "MATCH (p:Post) WHERE p.lang = $lang RETURN p", {"lang": "en"}
            )
        )
        self._populate(graph, random.Random(901))
        checked = 0
        for view in views:
            for node in view.network.nodes():
                state = node.state_delta()
                if state is None:
                    continue
                # input nodes answer in columns, interior nodes in rows
                restored = as_row_delta(roundtrip(state))
                state = as_row_delta(state)
                assert restored == state, type(node).__name__
                assert dict(restored.items()) == dict(state.items())
                checked += 1
        assert checked >= len(views)  # at least every production memory

    def test_view_multiset_equals_shipped_state(self):
        """The production's bag, pickled, is the view itself."""
        graph = PropertyGraph()
        engine = QueryEngine(graph)
        view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        self._populate(graph, random.Random(902))
        shipped = roundtrip(Delta(view.multiset().items()))
        assert dict(shipped.items()) == view.multiset()
