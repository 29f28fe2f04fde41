"""Transaction-batched delta propagation: event coalescing.

Per-event maintenance pushes every elementary graph event through every
view's network immediately.  Batch-oriented systems (MV4PG, Beyhl & Giese's
GDN) amortise that overhead by propagating the *net* change of a whole
update window instead.  This module supplies the first half of that
pipeline: a :class:`BatchAccumulator` buffers elementary
:class:`~repro.graph.events.GraphEvent`\\ s and consolidates them into a
:class:`CoalescedBatch` holding **at most one net record per entity** —
added, removed or changed:

* an entity created *and* destroyed inside the window vanishes entirely
  (the insert/delete pair cancels before any tuple is ever built),
* any number of label/property events on one surviving entity collapse
  into a single *changed* record,
* entities whose state round-trips back to the window-start value drop out.

A record is an entry in a group, not an event object: a vertex id, or an
edge's ``(source, edge, target)`` triple.  Vertices are grouped by label,
edges by type, and changed vertices by each label they flipped and each
property key that moved — the keys the event router indexes input nodes
by — so an input node reads only the groups its signature names.

The second half lives in the input nodes
(:meth:`~repro.rete.nodes.input.VertexInputNode.batch_delta`): each input
signature translates its groups once, column by column, into one net
:class:`~repro.rete.deltas.ColumnDelta`, which then makes a single trip
through the network.

Correctness of deferred translation
-----------------------------------
Elementary events are translated *eagerly* in per-event mode because input
nodes consult the live graph for state the event doesn't carry.  Deferred
translation is sound because the graph holds exactly the *after* state of
every record at flush time, so assertion columns are built from the live
graph by the same builders ``state_delta()`` uses at populate.  The
*before* state is carried only for removed and changed entities
(``vertex_before`` / ``edge_before``), so retraction columns are rebuilt
exactly as they were originally asserted — including for edges whose
endpoints changed or disappeared within the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..graph import events as ev
from ..graph.graph import PropertyGraph
from ..graph.values import same_properties


@dataclass(frozen=True, slots=True)
class CoalescedBatch:
    """The net effect of one update window, grouped for translation.

    Every group lists its entries in the order the window first touched
    them.  The after state of every record is the live graph's; the
    batch keeps before images only for removed and changed entities.
    """

    #: label → ``(added, removed)`` vertex ids, by the labels a vertex
    #: holds at the end (added) or start (removed) of the window; the
    #: ``None`` key lists every added and removed vertex
    vertices: dict[str | None, tuple[list[int], list[int]]]
    #: changed vertices by each label added or removed; ``None`` lists
    #: every changed vertex with a flipped label
    label_flips: dict[str | None, list[int]]
    #: changed vertices by each property key whose value moved; ``None``
    #: lists every changed vertex with a moved key
    key_changes: dict[str | None, list[int]]
    #: edge type → ``(added, removed, changed)`` ``(source, edge, target)``
    #: triples
    edges: dict[str, tuple[list, list, list]]
    #: window-start ``(labels, properties)`` of removed and changed vertices
    vertex_before: dict[int, tuple[frozenset[str], dict[str, Any]]]
    #: window-start ``(source, target, type, properties)`` of removed and
    #: changed edges
    edge_before: dict[int, tuple[int, int, str, dict[str, Any]]]
    #: added and changed edges, which an edge input's endpoint sweep
    #: leaves to their own records
    recorded_edges: set[int]
    #: entities with a net record (the ``net_per_raw`` numerator)
    net_records: int
    #: elementary events consumed to produce this batch (for reporting)
    raw_events: int


def _append(groups: dict, key, item) -> None:
    group = groups.get(key)
    if group is None:
        groups[key] = [item]
    else:
        group.append(item)


class BatchAccumulator:
    """Buffers one window of elementary events and consolidates them.

    ``record`` must be called synchronously from the graph's event stream
    (the store has just applied the mutation), because the first touch of a
    pre-existing entity snapshots its window-start state by unwinding the
    triggering event from the *current* graph state.  That snapshot is
    the entity's before image, ``(labels, properties)`` for a vertex and
    ``(source, target, type, properties)`` for an edge; an entity the
    window created has none (``None``, and properties ``None`` for an
    edge, whose endpoints and type the batch still needs).  After the
    first touch only liveness matters — final state is read from the graph
    at :meth:`consolidate` time.
    """

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self._vertices: dict[int, tuple | None] = {}
        self._edges: dict[int, tuple] = {}
        self._raw_events = 0

    def __bool__(self) -> bool:
        return self._raw_events > 0

    def __len__(self) -> int:
        return self._raw_events

    # -- recording ----------------------------------------------------------

    def record(self, event: ev.GraphEvent) -> None:
        self._raw_events += 1
        kind = type(event)
        if kind is ev.EdgeAdded:
            if event.edge_id not in self._edges:
                self._edges[event.edge_id] = (
                    event.source, event.target, event.edge_type, None
                )
        elif kind is ev.VertexAdded:
            if event.vertex_id not in self._vertices:
                self._vertices[event.vertex_id] = None
        elif kind is ev.VertexPropertySet:
            if event.vertex_id not in self._vertices:
                self._vertices[event.vertex_id] = (
                    self.graph.labels_of(event.vertex_id),
                    ev.unwind_property_set(
                        self.graph.vertex_properties(event.vertex_id), event
                    ),
                )
        elif kind is ev.EdgePropertySet:
            if event.edge_id not in self._edges:
                source, target = self.graph.endpoints(event.edge_id)
                self._edges[event.edge_id] = (
                    source,
                    target,
                    self.graph.type_of(event.edge_id),
                    ev.unwind_property_set(
                        self.graph.edge_properties(event.edge_id), event
                    ),
                )
        elif kind is ev.EdgeRemoved:
            if event.edge_id not in self._edges:
                self._edges[event.edge_id] = (
                    event.source,
                    event.target,
                    event.edge_type,
                    dict(event.properties),
                )
        elif kind is ev.VertexRemoved:
            if event.vertex_id not in self._vertices:
                self._vertices[event.vertex_id] = (
                    event.labels, dict(event.properties)
                )
        elif kind is ev.VertexLabelAdded or kind is ev.VertexLabelRemoved:
            if event.vertex_id not in self._vertices:
                labels = self.graph.labels_of(event.vertex_id)
                self._vertices[event.vertex_id] = (
                    labels ^ {event.label},
                    self.graph.vertex_properties(event.vertex_id),
                )

    # -- consolidation ------------------------------------------------------

    def consolidate(self) -> CoalescedBatch:
        """Classify every touched entity against the current graph state."""
        graph = self.graph
        has_vertex, labels_view = graph.has_vertex, graph.labels_view
        vertices: dict[str | None, tuple[list[int], list[int]]] = {}
        label_flips: dict[str | None, list[int]] = {}
        key_changes: dict[str | None, list[int]] = {}
        vertex_before: dict[int, tuple[frozenset[str], dict[str, Any]]] = {}
        net = 0
        for vertex_id, image in self._vertices.items():
            if has_vertex(vertex_id):
                if image is not None:
                    labels, properties = image
                    after = graph.vertex_properties(vertex_id)
                    flipped = labels.symmetric_difference(labels_view(vertex_id))
                    moved = (
                        ev.changed_property_keys(properties, after)
                        if not same_properties(properties, after)
                        else ()
                    )
                    if not (flipped or moved):
                        continue
                    vertex_before[vertex_id] = image
                    for groups, keys in ((label_flips, flipped), (key_changes, moved)):
                        if keys:
                            _append(groups, None, vertex_id)
                            for key in keys:
                                _append(groups, key, vertex_id)
                    net += 1
                    continue
                kind, labels = 0, labels_view(vertex_id)
            elif image is not None:
                kind, labels = 1, image[0]
                vertex_before[vertex_id] = image
            else:
                continue  # created and destroyed inside the window
            net += 1
            for label in (None, *labels):
                group = vertices.get(label)
                if group is None:
                    group = vertices[label] = ([], [])
                group[kind].append(vertex_id)

        edges: dict[str, tuple[list, list, list]] = {}
        edge_before: dict[int, tuple[int, int, str, dict[str, Any]]] = {}
        recorded: set[int] = set()
        has_edge = graph.has_edge
        for edge_id, image in self._edges.items():
            source, target, edge_type, properties = image
            if has_edge(edge_id):
                if properties is None:
                    kind = 0
                elif same_properties(properties, graph.edge_properties(edge_id)):
                    continue
                else:
                    kind = 2
                    edge_before[edge_id] = image
                recorded.add(edge_id)
            elif properties is not None:
                kind = 1
                edge_before[edge_id] = image
            else:
                continue
            net += 1
            group = edges.get(edge_type)
            if group is None:
                group = edges[edge_type] = ([], [], [])
            group[kind].append((source, edge_id, target))
        return CoalescedBatch(
            vertices,
            label_flips,
            key_changes,
            edges,
            vertex_before,
            edge_before,
            recorded,
            net,
            self._raw_events,
        )
