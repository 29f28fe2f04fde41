"""Pickle round trips: the values the engine consumes and hands out.

Graph events, ``on_change`` deltas in row and column form (whose rows may
carry the frozen graph values ``ListValue``/``MapValue``/``PathValue``),
consolidated :class:`~repro.rete.batch.CoalescedBatch` windows and every
node's ``state_delta()`` are plain values: a caller can pickle them to
persist or ship a change stream.  Each class here serialises one layer and
requires the round trip to be lossless — including *replay parity*: a
deserialised batch, applied to a graph that holds the window-start state
with after state read from the window-end graph (as input nodes read it),
rebuilds the window-end graph, and every live Rete node's serialised
``state_delta()`` equals its live memory.  The frozen values themselves are
round-tripped in ``tests/graph/test_values.py``.
"""

import pickle
import random

import pytest

from repro import ListValue, MapValue, PathValue, PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.graph import events as ev
from repro.rete.batch import BatchAccumulator, CoalescedBatch
from repro.rete.deltas import ColumnDelta, Delta

from .test_sharing import _random_op


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _replay(replica: PropertyGraph, batch: CoalescedBatch, source: PropertyGraph):
    """Apply a consolidated batch's net records to *replica*.

    A batch carries ids, groups and window-start images, not after state:
    at flush the after state is the source graph's, which is where the
    input nodes read it too.  Every before image must equal the replica's
    window-start state, and every group must list exactly the entities
    whose labels, keys or type put them there.  Edge removals run before
    vertex removals (the store forbids dangling edges), vertex additions
    before edge additions (endpoints must exist), and changes in between;
    ``_restore_vertex``/``_restore_edge`` keep the source's entity ids.
    """
    added, removed = batch.vertices.get(None, ([], []))
    for label, (plus, minus) in batch.vertices.items():
        if label is not None:
            assert plus == [v for v in added if label in source.labels_of(v)]
            assert minus == [v for v in removed if label in batch.vertex_before[v][0]]
    for edge_id, (src, tgt, edge_type, properties) in batch.edge_before.items():
        assert replica.endpoints(edge_id) == (src, tgt)
        assert replica.type_of(edge_id) == edge_type
        assert replica.edge_properties(edge_id) == properties
    for vertex_id, (labels, properties) in batch.vertex_before.items():
        assert replica.labels_of(vertex_id) == labels
        assert replica.vertex_properties(vertex_id) == properties
    for _, gone, _ in batch.edges.values():
        for src, edge_id, tgt in gone:
            assert batch.edge_before[edge_id][:2] == (src, tgt)
            replica.remove_edge(edge_id)
    for vertex_id in removed:
        replica.remove_vertex(vertex_id)
    for vertex_id in added:
        replica._restore_vertex(
            vertex_id, source.labels_of(vertex_id), source.vertex_properties(vertex_id)
        )
    changed = [v for v in batch.vertex_before if v not in removed]
    assert set(changed) == set(batch.label_flips.get(None, ())) | set(
        batch.key_changes.get(None, ())
    )
    for vertex_id in changed:
        before, after = replica.labels_of(vertex_id), source.labels_of(vertex_id)
        for label in before ^ after:
            assert vertex_id in batch.label_flips[label]
        for label in after - before:
            replica.add_label(vertex_id, label)
        for label in before - after:
            replica.remove_label(vertex_id, label)
        properties = source.vertex_properties(vertex_id)
        for key in ev.changed_property_keys(
            replica.vertex_properties(vertex_id), properties
        ):
            assert vertex_id in batch.key_changes[key]
            replica.set_vertex_property(vertex_id, key, properties.get(key))
    for edge_type, (new, _, changed) in batch.edges.items():
        for src, edge_id, tgt in new:
            assert source.type_of(edge_id) == edge_type
            assert source.endpoints(edge_id) == (src, tgt)
            assert edge_id in batch.recorded_edges
            replica._restore_edge(
                edge_id, src, tgt, edge_type, source.edge_properties(edge_id)
            )
        for src, edge_id, tgt in changed:
            assert edge_id in batch.recorded_edges
            assert batch.edge_before[edge_id][:2] == (src, tgt)
            properties = source.edge_properties(edge_id)
            for key in ev.changed_property_keys(
                replica.edge_properties(edge_id), properties
            ):
                replica.set_edge_property(edge_id, key, properties.get(key))


EVENTS = [
    ev.VertexAdded(1, frozenset({"Post"}), {"lang": "en"}),
    ev.VertexRemoved(1, frozenset({"Post"}), {"lang": "en"}),
    ev.VertexLabelAdded(1, "Comm"),
    ev.VertexLabelRemoved(1, "Comm"),
    ev.VertexPropertySet(1, "lang", "en", "de"),
    ev.EdgeAdded(5, 1, 2, "REPLY", {"w": 1}),
    ev.EdgeRemoved(5, 1, 2, "REPLY", {"w": 1}),
    ev.EdgePropertySet(5, "w", 1, 2),
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
    """A pickled batch, read against the window-end graph the way input
    nodes read it, must carry a replica from the window-start graph to
    the window-end graph."""

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
            assert restored == batch
            _replay(replica, restored, source)
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

    def _populate(self, graph, rng, batched=False):
        for _ in range(40):
            vertices = list(graph.vertices())
            edges = list(graph.edges())
            if not batched:
                _random_op(rng, vertices, edges)(graph)
                continue
            ops = [_random_op(rng, vertices, edges) for _ in range(rng.randint(1, 4))]
            try:
                with graph.transaction():
                    for op in ops:
                        op(graph)
            except GraphError:
                pass

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    def test_every_node_state_survives_the_wire(self, batched):
        """Node states built per event, or by coalesced transactions."""
        graph = PropertyGraph()
        engine = QueryEngine(graph, batch_transactions=batched)
        views = [engine.register(query) for query in self.QUERIES]
        views.append(
            engine.register(
                "MATCH (p:Post) WHERE p.lang = $lang RETURN p", {"lang": "en"}
            )
        )
        self._populate(graph, random.Random(901), batched)
        checked = 0
        for view in views:
            for node in view.network.nodes():
                state = node.state_delta()
                if state is None:
                    continue
                # input nodes answer in columns, interior nodes in rows
                restored, state = (
                    delta.to_delta() if type(delta) is ColumnDelta else delta
                    for delta in (roundtrip(state), state)
                )
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
