"""Input nodes: the network's interface to the graph's event stream.

Each input node materialises one base relation (the paper's © and ⇑
operators, including their pushed-down ``{prop → attr}`` columns) and
translates graph changes into :class:`~repro.rete.deltas.ColumnDelta`
batches, the one form that crosses a network edge.  Per-event translation
reads each event's *before* state, so retraction tuples are rebuilt
exactly as they were emitted — the network never consults its own memory
to undo an input — and transposes the event's few rows into a batch.  The
current relation (``state_delta``, what populate replays) and the net
change of a coalesced batch (``batch_delta``) are built column by column,
by the same column builders.  Both paths drop a changed entity whose
before and after rows are the same values, and emit every other
retraction before its assertion, unconsolidated.
"""

from __future__ import annotations

from typing import Any

from ...algebra.ops import GetEdges, GetVertices
from ...eval.projections import (
    edge_projection_column,
    edge_projection_value,
    vertex_projection_column,
    vertex_projection_value,
)
from ...graph import events as ev
from ...graph.graph import PropertyGraph
from ...graph.values import same_value
from ..deltas import ColumnDelta
from ..router import EdgeInterest, VertexInterest
from .base import LEFT, Node


def _private_dict(properties) -> dict[str, Any]:
    """The event's property payload as a plain dict, copy-free when possible.

    The store always emits events carrying fresh private dicts, and every
    consumer treats them as read-only, so rebuilding them per input node is
    pure overhead; non-dict mappings (hand-built events) still get copied.
    """
    return properties if type(properties) is dict else dict(properties)


#: the probe column of an edge input keyed on both endpoints
BETWEEN = (0, 2)

#: the batch group of a label no vertex in the batch carries (never mutated)
_NO_VERTICES: tuple[list[int], list[int]] = ([], [])


class UnitNode(Node):
    """Its state is the single empty tuple: a zero-width batch of one
    occurrence."""

    def state_delta(self, restriction: tuple = ()) -> ColumnDelta:
        return ColumnDelta([], [1], 0)

    state_columns = state_delta

    def on_event(self, event: ev.GraphEvent) -> None:  # pragma: no cover
        pass

    def apply(self, delta: ColumnDelta, side: int) -> None:  # pragma: no cover
        raise AssertionError("input nodes have no upstream")


class _GraphInputNode(Node):
    """What © and ⇑ share: their state is the graph itself.

    ``state_delta`` builds the relation over the live graph column by
    column (one id column, one list per pushed projection) — the single
    builder behind population, targeted replay and the catalog.

    ``batch_delta`` translates a :class:`~repro.rete.batch.CoalescedBatch`
    with the same builders: it reads only the batch groups the node's
    signature names (its labels or edge types, and the flipped labels and
    moved property keys its columns read), builds the assertion half from
    the live graph and the retraction half from the batch's before images,
    and drops a changed entity whose before and after rows are the same
    values.  No row is built and nothing is transposed.
    """

    def state_columns(self, restriction: tuple = ()) -> ColumnDelta:
        """:meth:`state_delta`, built in columns already."""
        return self.state_delta(restriction)

    def _emit_rows(self, rows: list[tuple], multiplicity: int) -> None:
        """Emit one event's *rows*, each at *multiplicity*, as a batch."""
        if rows:
            mults = [multiplicity] * len(rows)
            self.emit(ColumnDelta.from_rows(rows, mults, len(self.schema)))

    def _emit_change(self, gone: list[tuple], new: list[tuple]) -> None:
        """Emit one event's retraction of the *gone* rows and assertion of
        the *new* ones (each list holds distinct rows).

        A gone row and a new row that are the same values
        (:func:`~repro.graph.values.same_value`) are dropped, as
        :meth:`_net` drops them from a batch.  A value that only changed
        type (``1`` → ``True``) is ``==`` but not the same, so it still
        reaches a σ that tells the two apart: every other row is emitted,
        retractions first, so every memory folds the old row out before
        the new one comes in.
        """
        if gone and new:
            held = dict(zip(gone, gone))
            same = {row for row in new if row in held and same_value(held[row], row)}
            if same:
                gone = [row for row in gone if row not in same]
                new = [row for row in new if row not in same]
        mults = [-1] * len(gone) + [1] * len(new)
        if mults:
            self.emit(ColumnDelta.from_rows(gone + new, mults, len(self.schema)))

    def emit_batch(self, batch) -> None:
        """Translate one coalesced batch and emit it."""
        self.emit(self.batch_delta(batch))

    #: keys of the batch's ``label_flips`` / ``key_changes`` groups whose
    #: vertices this node's relation can move with (``None``: every one)
    _flip_keys: tuple
    _move_keys: tuple

    def _changed(self, batch) -> list[int]:
        """The batch's changed vertices in the groups this node reads."""
        flips, moves = batch.label_flips, batch.key_changes
        if not (flips or moves):
            return []
        groups = [flips[key] for key in self._flip_keys if key in flips]
        groups += [moves[key] for key in self._move_keys if key in moves]
        if len(groups) <= 1:
            return groups[0] if groups else []
        return sorted({vertex for group in groups for vertex in group})

    def _net(self, gone, new, both, was, now, images) -> ColumnDelta:
        """One batch retracting the before rows of *gone* and asserting the
        after rows of *new*.  A key of *both* (a changed entity) retracts
        where *was* admits it and asserts where *now* does (``None`` admits
        every key), and emits nothing when its two rows are the same
        values (:func:`~repro.graph.values.same_value`).  The node's ``_columns`` builds both halves,
        the retraction half from *images*."""
        pairs = None
        if both:
            gone, new, pairs = list(gone), list(new), []
            for key in both:
                old = was is None or was(key)
                fresh = now is None or now(key)
                if old:
                    gone.append(key)
                if fresh:
                    new.append(key)
                if old and fresh:
                    pairs.append((len(gone) - 1, len(new) - 1))
        n = len(gone)
        if not new:
            before = self._columns(gone, images)
            return ColumnDelta(before, [-1] * n, len(before))
        after = self._columns(new)
        if not n:
            return ColumnDelta(after, [1] * len(new), len(after))
        before = self._columns(gone, images)
        delta = ColumnDelta(
            [b + a for b, a in zip(before, after)],
            [-1] * n + [1] * len(new),
            len(before),
        )
        same = [
            (i, n + j)
            for i, j in pairs or ()
            if all(
                b[i] is a[j] or (b[i] == a[j] and same_value(b[i], a[j]))
                for b, a in zip(before, after)
            )
        ]
        if not same:
            return delta
        dropped = {position for pair in same for position in pair}
        return delta.take([p for p in range(len(delta)) if p not in dropped])

    def apply(self, delta: ColumnDelta, side: int) -> None:  # pragma: no cover
        raise AssertionError("input nodes have no upstream")

    # -- keyed probes ---------------------------------------------------------

    def probe(self, column: int, values, chain=(), picks=None) -> ColumnDelta:
        """*chain* — the σ and bare-column π above this node, bottom up —
        over the rows whose id *column* holds one of *values*, read from
        the live graph by key (:meth:`_keyed`) and built by :meth:`_columns`.
        The state a probe-side ⋈ reads in place of a memory.  A chain of
        π only may come as the columns it *picks* instead: just those are
        built."""
        keys = self._keyed(column, values)
        ones = [1] * len(keys)
        if picks is not None:
            columns = self._columns(keys, wanted=picks)
            return ColumnDelta([columns[c] for c in picks], ones, len(picks))
        delta = ColumnDelta(self._columns(keys), ones, len(self.schema))
        for node in chain:
            delta = node.transform(delta, LEFT)
        return delta

    #: the columns :meth:`probe` reads by (entity ids), the cheapest first
    id_columns: tuple[int, ...]

    def lookup(self, column: int, value) -> "tuple[int, list] | None":
        """``(id column, ids)`` such that every row with ``row[column] ==
        value`` has one of *ids* in that id column, or ``None`` when only a
        scan of the relation could tell — what the restricted replay of a
        probe side reads by."""
        raise NotImplementedError

    def _vertices_holding(self, projection, labels, value) -> "list[int] | None":
        """Vertices carrying *labels* whose pushed *projection* can be
        ``== value``: a property-index lookup when one of *labels* has an
        index on its key, else a scan of the smallest label's members
        (``None`` without a label or for another projection kind)."""
        if projection.kind != "property" or not labels:
            return None
        graph, key = self.graph, projection.key
        for label in sorted(labels):
            if graph.has_index(label, key):
                return list(graph.lookup_index(label, key, value))
        seed = min(labels, key=lambda label: (graph.label_count(label), label))
        members = list(graph.label_members(seed))
        held = graph.vertex_property_column(members, key)
        return [v for v, found in zip(members, held) if found == value]


class VertexInputNode(_GraphInputNode):
    """© — vertices carrying all required labels, with pushed-down columns.

    A constant filter on a pushed column is no part of the relation: it is
    the σ above, so every view over the same labels and columns shares one
    node whatever constants its σ compares with.
    """

    def __init__(self, op: GetVertices, graph: PropertyGraph):
        super().__init__(op.schema)
        self.graph = graph
        self.labels = frozenset(op.labels)
        self.projections = op.projections
        self._property_keys = frozenset(
            p.key for p in op.projections if p.kind == "property"
        )
        self._wants_labels = any(p.kind == "labels" for p in op.projections)
        self._wants_properties = any(p.kind == "properties" for p in op.projections)
        # a batch's added/removed vertices are read from one required
        # label's group, changed ones from flips of a required label or of
        # a labels() column and from moves of a read key
        self._seed = min(self.labels) if self.labels else None
        self._flip_keys = (None,) if self._wants_labels else tuple(sorted(self.labels))
        self._move_keys = (
            (None,) if self._wants_properties else tuple(sorted(self._property_keys))
        )

    def interest(self) -> VertexInterest:
        """The interest signature the event router indexes this node by."""
        return VertexInterest(
            labels=self.labels,
            property_keys=self._property_keys,
            all_properties=self._wants_properties,
            label_values=self._wants_labels,
        )

    # -- tuple building -----------------------------------------------------

    def _matches(self, labels) -> bool:
        return self.labels <= set(labels)

    def _tuple(
        self,
        vertex_id: int,
        labels=None,
        properties: dict[str, Any] | None = None,
    ) -> tuple:
        row = [vertex_id]
        for projection in self.projections:
            row.append(
                vertex_projection_value(
                    self.graph,
                    vertex_id,
                    projection,
                    labels=labels,
                    properties=properties,
                )
            )
        return tuple(row)

    # -- activation & events --------------------------------------------------

    def _scan(self) -> list[int]:
        """Ids of the vertices carrying every required label.

        The scan walks the smallest required label's bucket (ties broken
        by label name, so the walk never depends on string hashing) and
        checks the rest against the uncopied label set."""
        graph = self.graph
        if not self.labels:
            return list(graph.vertices())
        seed = min(self.labels, key=lambda label: (graph.label_count(label), label))
        rest = self.labels - {seed}
        if not rest:
            return list(graph.vertices(seed))
        labels = graph.labels_view
        return [v for v in graph.vertices(seed) if rest <= labels(v)]

    def _columns(self, ids: list[int], images=None, wanted=None) -> list[list]:
        """The id column and one column per pushed projection, from the
        live graph or the ``(labels, properties)`` *images* (``None`` for a
        projection outside *wanted*, when given)."""
        graph = self.graph
        return [ids] + [
            vertex_projection_column(graph, ids, projection, images)
            if wanted is None or column in wanted
            else None
            for column, projection in enumerate(self.projections, 1)
        ]

    def state_delta(self, restriction: tuple = ()) -> ColumnDelta:
        ids = self._scan()
        return ColumnDelta(self._columns(ids), [1] * len(ids), len(self.schema))

    id_columns = (0,)

    def _keyed(self, column: int, values) -> list[int]:
        """The vertices among *values* carrying every required label."""
        graph = self.graph
        ids = [v for v in dict.fromkeys(values) if graph.has_vertex(v)]
        for label in self.labels:
            members = graph.label_members(label)
            ids = [v for v in ids if v in members]
        return ids

    def lookup(self, column: int, value) -> "tuple[int, list] | None":
        if column:
            projection = self.projections[column - 1]
            ids = self._vertices_holding(projection, self.labels, value)
            return None if ids is None else (0, ids)
        return 0, [value]

    def on_event(self, event: ev.GraphEvent) -> None:
        if isinstance(event, (ev.VertexAdded, ev.VertexRemoved)):
            if self._matches(event.labels):
                row = self._tuple(
                    event.vertex_id,
                    labels=event.labels,
                    properties=_private_dict(event.properties),
                )
                self._emit_rows([row], 1 if isinstance(event, ev.VertexAdded) else -1)
        elif isinstance(event, ev.VertexLabelAdded):
            current = self.graph.labels_of(event.vertex_id)
            before = current - {event.label}
            self._label_transition(event.vertex_id, before, current)
        elif isinstance(event, ev.VertexLabelRemoved):
            current = self.graph.labels_of(event.vertex_id)
            before = current | {event.label}
            self._label_transition(event.vertex_id, before, current)
        elif isinstance(event, ev.VertexPropertySet):
            self._property_change(event)

    def _label_transition(self, vertex_id: int, before, current) -> None:
        was = self._matches(before)
        now = self._matches(current)
        if was and not now:
            self._emit_rows([self._tuple(vertex_id, labels=before)], -1)
        elif now and not was:
            self._emit_rows([self._tuple(vertex_id, labels=current)], 1)
        elif was and self._wants_labels:
            # membership unchanged but a labels(...) column changed value
            self._emit_change(
                [self._tuple(vertex_id, labels=before)],
                [self._tuple(vertex_id, labels=current)],
            )

    def batch_delta(self, batch) -> ColumnDelta:
        """Net delta for one :class:`~repro.rete.batch.CoalescedBatch`."""
        labels, images = self.labels, batch.vertex_before
        view = self.graph.labels_view
        added, removed = batch.vertices.get(self._seed, _NO_VERTICES)
        if len(labels) > 1:
            added = [v for v in added if labels <= view(v)]
            removed = [v for v in removed if labels <= images[v][0]]
        changed = self._changed(batch)
        was = now = None
        if changed and labels:
            was = lambda v: labels <= images[v][0]
            now = lambda v: labels <= view(v)
        return self._net(removed, added, changed, was, now, images)

    def _property_change(self, event: ev.VertexPropertySet) -> None:
        if not (self._wants_properties or event.key in self._property_keys):
            return
        if not self._matches(self.graph.labels_of(event.vertex_id)):
            return
        after = self.graph.vertex_properties(event.vertex_id)
        before = ev.unwind_property_set(after, event)
        self._emit_change(
            [self._tuple(event.vertex_id, properties=before)],
            [self._tuple(event.vertex_id, properties=after)],
        )


class EdgeInputNode(_GraphInputNode):
    """⇑ — ``(src, edge, tgt)`` triples with endpoint label constraints and
    pushed-down columns (the paper's ``⇑(c:Comm{lang→cL})(p:Post)``).

    With ``directed=False`` every non-loop edge contributes both
    orientations.  The node reacts to edge lifecycle events, edge property
    changes, and label/property changes of *endpoint* vertices (which can
    change membership or pushed-column values of incident edge tuples).
    """

    def __init__(self, op: GetEdges, graph: PropertyGraph):
        super().__init__(op.schema)
        self.graph = graph
        self.types = frozenset(op.types)
        self.src_labels = frozenset(op.src_labels)
        self.tgt_labels = frozenset(op.tgt_labels)
        self.directed = op.directed
        self.projections = op.projections
        self._roles = []
        for projection in op.projections:
            if projection.subject == op.src:
                self._roles.append("src")
            elif projection.subject == op.edge:
                self._roles.append("edge")
            else:
                self._roles.append("tgt")
        self._edge_property_keys = frozenset(
            p.key
            for p, role in zip(op.projections, self._roles)
            if role == "edge" and p.kind == "property"
        )
        self._wants_edge_properties = any(
            p.kind == "properties"
            for p, role in zip(op.projections, self._roles)
            if role == "edge"
        )
        self._vertex_property_keys = frozenset(
            p.key
            for p, role in zip(op.projections, self._roles)
            if role in ("src", "tgt") and p.kind == "property"
        )
        self._wants_vertex_properties = any(
            p.kind == "properties"
            for p, role in zip(op.projections, self._roles)
            if role in ("src", "tgt")
        )
        self._wants_vertex_labels = any(
            p.kind == "labels"
            for p, role in zip(op.projections, self._roles)
            if role in ("src", "tgt")
        )
        self._type_order = tuple(sorted(self.types))
        self._flip_keys = (
            (None,)
            if self._wants_vertex_labels
            else tuple(sorted(self.src_labels | self.tgt_labels))
        )
        self._move_keys = (
            (None,)
            if self._wants_vertex_properties
            else tuple(sorted(self._vertex_property_keys))
        )

    def interest(self) -> EdgeInterest:
        """The interest signature the event router indexes this node by."""
        return EdgeInterest(
            types=self.types,
            endpoint_labels=self.src_labels | self.tgt_labels,
            endpoint_label_values=self._wants_vertex_labels,
            vertex_property_keys=self._vertex_property_keys,
            all_vertex_properties=self._wants_vertex_properties,
            edge_property_keys=self._edge_property_keys,
            all_edge_properties=self._wants_edge_properties,
        )

    # -- tuple building ----------------------------------------------------

    def _type_matches(self, edge_type: str) -> bool:
        return not self.types or edge_type in self.types

    def _interesting_incident(self, vertex_id: int):
        """Incident edges already narrowed to this node's admissible types.

        Leans on the graph's per-type adjacency: with a type constraint
        only the matching buckets are walked (no per-edge ``type_of``
        check), and each yielded edge is guaranteed type-admissible.
        """
        if not self.types:
            yield from self.graph.incident_edges(vertex_id)
            return
        for edge_type in self._type_order:
            yield from self.graph.incident_edges(vertex_id, edge_type)

    def _orientations(self, source: int, target: int):
        yield source, target
        if not self.directed and source != target:
            yield target, source

    def _row(
        self,
        edge_id: int,
        src: int,
        tgt: int,
        *,
        vertex_labels: dict[int, frozenset[str]] | None = None,
        vertex_properties: dict[int, dict] | None = None,
        edge_type: str | None = None,
        edge_properties: dict | None = None,
    ) -> tuple | None:
        """One oriented tuple, or None when label constraints fail.

        The override maps supply *before* state for the vertices whose
        labels/properties an event changed.
        """
        labels_of = lambda v: (
            vertex_labels[v]
            if vertex_labels is not None and v in vertex_labels
            else self.graph.labels_of(v)
        )
        if self.src_labels and not self.src_labels <= set(labels_of(src)):
            return None
        if self.tgt_labels and not self.tgt_labels <= set(labels_of(tgt)):
            return None
        row = [src, edge_id, tgt]
        for projection, role in zip(self.projections, self._roles):
            if role == "edge":
                row.append(
                    edge_projection_value(
                        self.graph,
                        edge_id,
                        projection,
                        edge_type=edge_type,
                        properties=edge_properties,
                    )
                )
            else:
                vertex = src if role == "src" else tgt
                overrides = {}
                if vertex_labels is not None and vertex in vertex_labels:
                    overrides["labels"] = vertex_labels[vertex]
                if vertex_properties is not None and vertex in vertex_properties:
                    overrides["properties"] = vertex_properties[vertex]
                row.append(
                    vertex_projection_value(
                        self.graph, vertex, projection, **overrides
                    )
                )
        return tuple(row)

    def _edge_rows(
        self, edge_id: int, source: int, target: int, rows: list, **overrides
    ) -> None:
        """Append the edge's oriented rows under *overrides* to *rows*."""
        for src, tgt in self._orientations(source, target):
            row = self._row(edge_id, src, tgt, **overrides)
            if row is not None:
                rows.append(row)

    # -- activation & events --------------------------------------------------

    @staticmethod
    def _oriented(triples: list[tuple[int, int, int]]) -> list:
        """*triples* then their non-loop reversals (an undirected ⇑)."""
        return triples + [(t, e, s) for s, e, t in triples if s != t]

    def _columns(self, triples: list, images=None, wanted=None) -> list[list]:
        """Columns over oriented ``(src, edge, tgt)`` triples, from the
        live graph or the ``(vertex images, edge images)`` pair *images*
        (``None`` for a projection outside *wanted*, when given)."""
        graph = self.graph
        vertex_images, edge_images = images or (None, None)
        if triples:
            src, edges, tgt = map(list, zip(*triples))
        else:
            src, edges, tgt = [], [], []
        columns = [src, edges, tgt]
        roles = zip(self.projections, self._roles)
        for column, (projection, role) in enumerate(roles, 3):
            if wanted is not None and column not in wanted:
                columns.append(None)
            elif role == "edge":
                columns.append(
                    edge_projection_column(graph, edges, projection, edge_images)
                )
            else:
                ids = src if role == "src" else tgt
                columns.append(
                    vertex_projection_column(graph, ids, projection, vertex_images)
                )
        return columns

    def state_delta(self, restriction: tuple = ()) -> ColumnDelta:
        graph = self.graph
        triples: list[tuple[int, int, int]] = []
        for edge_type in self._type_order or (None,):
            triples.extend(graph.edge_triples(edge_type))
        if not self.directed:
            triples = self._oriented(triples)
        src_labels, tgt_labels = self.src_labels, self.tgt_labels
        if src_labels or tgt_labels:
            labels = graph.labels_view
            triples = [
                triple
                for triple in triples
                if src_labels <= labels(triple[0]) and tgt_labels <= labels(triple[2])
            ]
        return ColumnDelta(
            self._columns(triples), [1] * len(triples), len(self.schema)
        )

    #: the edge first: one record read against a whole star
    id_columns = (1, 0, 2)

    def _keyed(self, column, values) -> list[tuple[int, int, int]]:
        """The oriented triples whose *column* — source (0), edge (1) or
        target (2) — holds one of *values*: one star read per vertex and
        admissible type, one record read per edge.  Column
        :data:`BETWEEN` takes ``(source, target)`` pairs, read through one
        endpoint."""
        graph = self.graph
        triples: list[tuple[int, int, int]] = []
        if column == BETWEEN:
            # through the endpoint with the more stars of these types, the
            # one whose stars are the smaller on average
            wanted = set(values)
            side = 0 if self._stars(True) >= self._stars(False) else 1
            keyed = self._keyed(2 * side, {pair[side] for pair in wanted})
            return [triple for triple in keyed if (triple[0], triple[2]) in wanted]
        if column == 1:
            for edge_id in dict.fromkeys(values):
                record = graph.edge_record(edge_id)
                if record is not None and self._type_matches(record[2]):
                    triples.append((record[0], edge_id, record[1]))
            if not self.directed:
                triples = self._oriented(triples)
        else:
            outgoing = column == 0
            vertices = list(dict.fromkeys(values))
            for edge_type in self._type_order or (None,):
                triples += graph.star_triples(vertices, edge_type, outgoing)
                if not self.directed:
                    # the edges on the other side of the stars, reversed
                    triples += [
                        (t, e, s)
                        for s, e, t in graph.star_triples(
                            vertices, edge_type, not outgoing
                        )
                        if s != t
                    ]
        for position, labels in ((0, self.src_labels), (2, self.tgt_labels)):
            for label in labels:
                members = graph.label_members(label)
                triples = [triple for triple in triples if triple[position] in members]
        return triples

    def _stars(self, outgoing: bool) -> int:
        """How many vertices have a star of this node's types as sources
        (*outgoing*) or as targets."""
        count = self.graph.star_count
        types = self._type_order or (None,)
        return sum(count(edge_type, outgoing) for edge_type in types)

    def lookup(self, column: int, value) -> "tuple[int, list] | None":
        if column < 3:
            return column, [value]
        role = self._roles[column - 3]
        if role == "edge":
            return None
        labels = self.src_labels if role == "src" else self.tgt_labels
        ids = self._vertices_holding(self.projections[column - 3], labels, value)
        return None if ids is None else (0 if role == "src" else 2, ids)

    def on_event(self, event: ev.GraphEvent) -> None:
        if isinstance(event, (ev.EdgeAdded, ev.EdgeRemoved)):
            if self._type_matches(event.edge_type):
                rows: list[tuple] = []
                self._edge_rows(
                    event.edge_id,
                    event.source,
                    event.target,
                    rows,
                    edge_type=event.edge_type,
                    edge_properties=_private_dict(event.properties),
                )
                self._emit_rows(rows, 1 if isinstance(event, ev.EdgeAdded) else -1)
        elif isinstance(event, ev.EdgePropertySet):
            self._edge_property_change(event)
        elif isinstance(event, ev.VertexLabelAdded):
            current = self.graph.labels_of(event.vertex_id)
            self._endpoint_label_change(
                event.vertex_id, current - {event.label}, current
            )
        elif isinstance(event, ev.VertexLabelRemoved):
            current = self.graph.labels_of(event.vertex_id)
            self._endpoint_label_change(
                event.vertex_id, current | {event.label}, current
            )
        elif isinstance(event, ev.VertexPropertySet):
            self._endpoint_property_change(event)

    def batch_delta(self, batch) -> ColumnDelta:
        """Net delta for one :class:`~repro.rete.batch.CoalescedBatch`.

        Edge records come from the groups of this node's types (every
        type when it has none), in sorted type order.  A final sweep
        covers surviving edges that were untouched themselves but hang off
        a vertex whose labels/properties changed in a way this node reads
        (each such edge exactly once, even when both endpoints changed).
        """
        graph, groups = self.graph, batch.edges
        gone, new, both = [], [], []
        for edge_type in self._type_order or sorted(groups):
            group = groups.get(edge_type)
            if group is not None:
                new += group[0]
                gone += group[1]
                both += group[2]
        changed = self._changed(batch)
        swept = set(batch.recorded_edges) if changed else None
        for vertex in changed:
            for e in self._interesting_incident(vertex):
                if e not in swept:
                    swept.add(e)
                    s, t = graph.endpoints(e)
                    both.append((s, e, t))
        if not self.directed:
            gone, new, both = map(self._oriented, (gone, new, both))
        images = batch.vertex_before
        was = now = None
        src_labels, tgt_labels = self.src_labels, self.tgt_labels
        for position, labels in ((0, src_labels), (2, tgt_labels)):
            for label in labels:
                members = graph.label_members(label)
                new = [k for k in new if k[position] in members]
        if (src_labels or tgt_labels) and (gone or both):
            view = graph.labels_view
            before = lambda v: images[v][0] if v in images else view(v)
            was = lambda k: src_labels <= before(k[0]) and tgt_labels <= before(k[2])
            now = lambda k: src_labels <= view(k[0]) and tgt_labels <= view(k[2])
            gone = [k for k in gone if was(k)]
        return self._net(gone, new, both, was, now, (images, batch.edge_before))

    def _edge_property_change(self, event: ev.EdgePropertySet) -> None:
        if not (
            self._wants_edge_properties or event.key in self._edge_property_keys
        ):
            return
        if not self._type_matches(self.graph.type_of(event.edge_id)):
            return
        source, target = self.graph.endpoints(event.edge_id)
        after = self.graph.edge_properties(event.edge_id)
        before = ev.unwind_property_set(after, event)
        gone: list[tuple] = []
        new: list[tuple] = []
        self._edge_rows(event.edge_id, source, target, gone, edge_properties=before)
        self._edge_rows(event.edge_id, source, target, new, edge_properties=after)
        self._emit_change(gone, new)

    def _relevant_label_change(self, before, current) -> bool:
        changed = before ^ current
        if self._wants_vertex_labels:
            return True
        return bool(changed & (self.src_labels | self.tgt_labels))

    def _endpoint_label_change(self, vertex_id: int, before, current) -> None:
        if not self._relevant_label_change(before, current):
            return
        gone: list[tuple] = []
        new: list[tuple] = []
        for edge_id in self._interesting_incident(vertex_id):
            source, target = self.graph.endpoints(edge_id)
            self._edge_rows(
                edge_id, source, target, gone, vertex_labels={vertex_id: before}
            )
            self._edge_rows(
                edge_id, source, target, new, vertex_labels={vertex_id: current}
            )
        self._emit_change(gone, new)

    def _endpoint_property_change(self, event: ev.VertexPropertySet) -> None:
        if not (
            self._wants_vertex_properties
            or event.key in self._vertex_property_keys
        ):
            return
        after = self.graph.vertex_properties(event.vertex_id)
        before = ev.unwind_property_set(after, event)
        gone: list[tuple] = []
        new: list[tuple] = []
        for edge_id in self._interesting_incident(event.vertex_id):
            source, target = self.graph.endpoints(edge_id)
            self._edge_rows(
                edge_id, source, target, gone,
                vertex_properties={event.vertex_id: before},
            )
            self._edge_rows(
                edge_id, source, target, new,
                vertex_properties={event.vertex_id: after},
            )
        self._emit_change(gone, new)
