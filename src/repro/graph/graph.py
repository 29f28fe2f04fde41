"""The property graph store.

Implements the paper's data model (§2): a property graph
``G = (V, E, st, L, T, L, T, Pv, Pe)`` with

* vertices ``V`` carrying a *set* of labels from ``L``,
* edges ``E`` carrying exactly one type from ``T`` and endpoint function
  ``st : E → V × V``,
* partial property functions ``Pv``/``Pe`` into the (nested) value domain.

The store is optimised for the access paths the query engine needs:

* label index (``get-vertices`` ©),
* type index (``get-edges`` ⇑),
* out/in adjacency (expansion and the non-incremental evaluator).

Every elementary mutation emits one :mod:`~repro.graph.events` event to all
subscribed listeners, synchronously, *after* the store has been updated —
this event stream is the input delta stream of the Rete network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..errors import (
    DanglingEdgeError,
    EntityNotFoundError,
    GraphError,
    TransactionError,
)
from . import events as ev
from .values import freeze_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .transactions import Transaction

Listener = Callable[[ev.GraphEvent], None]


class _VertexRecord:
    __slots__ = ("labels", "properties")

    def __init__(self, labels: set[str], properties: dict[str, Any]):
        self.labels = labels
        self.properties = properties


class _EdgeRecord:
    __slots__ = ("source", "target", "edge_type", "properties")

    def __init__(self, source: int, target: int, edge_type: str, properties: dict[str, Any]):
        self.source = source
        self.target = target
        self.edge_type = edge_type
        self.properties = properties


class PropertyGraph:
    """An in-memory property graph with change notification.

    Vertex and edge ids are small integers from two independent counters
    (``V`` and ``E`` are disjoint sets in the model; the id spaces may
    overlap numerically but are always interpreted relative to their kind).

    Example
    -------
    >>> g = PropertyGraph()
    >>> p = g.add_vertex(labels=["Post"], properties={"lang": "en"})
    >>> c = g.add_vertex(labels=["Comm"], properties={"lang": "en"})
    >>> e = g.add_edge(p, c, "REPLY")
    >>> sorted(g.vertices("Post"))
    [1]
    """

    def __init__(self) -> None:
        self._vertices: dict[int, _VertexRecord] = {}
        self._edges: dict[int, _EdgeRecord] = {}
        self._label_index: dict[str, set[int]] = {}
        self._type_index: dict[str, set[int]] = {}
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        # per-type adjacency: vertex → edge type → edge ids.  Kept exactly
        # in sync with _out/_in so type-filtered neighbourhood reads are
        # direct lookups instead of filtered scans over the full star.
        self._out_by_type: dict[int, dict[str, set[int]]] = {}
        self._in_by_type: dict[int, dict[str, set[int]]] = {}
        self._next_vertex_id = 1
        self._next_edge_id = 1
        self._listeners: list[Listener] = []
        self._tx_listeners: list[Callable[[str], None]] = []
        self._transaction: "Transaction | None" = None
        # user-created (label, key) → value → vertex ids
        self._property_indexes: dict[tuple[str, str], dict[Any, set[int]]] = {}

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------

    def subscribe(self, listener: Listener) -> None:
        """Register *listener* to receive every subsequent change event."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def _emit(self, event: ev.GraphEvent) -> None:
        if self._transaction is not None:
            self._transaction._record(event)
        for listener in self._listeners:
            listener(event)

    def subscribe_transactions(self, listener: Callable[[str], None]) -> None:
        """Register *listener* for transaction phases.

        The listener is called with ``"begin"`` when a transaction scope
        opens, ``"commit"`` after a clean close, and ``"rollback"`` after a
        rollback's compensation events have all been applied.  The batching
        engine uses this to propagate one consolidated delta per committed
        transaction (and a guaranteed-empty one per rollback).
        """
        self._tx_listeners.append(listener)

    def unsubscribe_transactions(self, listener: Callable[[str], None]) -> None:
        self._tx_listeners.remove(listener)

    def _notify_transaction(self, phase: str) -> None:
        for listener in list(self._tx_listeners):
            listener(phase)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> "Transaction":
        """An undo scope: changes inside it are compensated on failure.

        See :class:`~repro.graph.transactions.Transaction`.  Nested
        transactions are rejected with :class:`TransactionError`.
        """
        from .transactions import Transaction

        return Transaction(self)

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None

    def _begin_transaction(self, transaction: "Transaction") -> None:
        if self._transaction is not None:
            raise TransactionError("transactions cannot be nested")
        self._transaction = transaction

    def _end_transaction(self, transaction: "Transaction") -> None:
        if self._transaction is not transaction:  # pragma: no cover - misuse guard
            raise TransactionError("ending a transaction that is not active")
        self._transaction = None

    # ------------------------------------------------------------------
    # property indexes
    # ------------------------------------------------------------------

    def create_index(self, label: str, key: str) -> None:
        """Create (and backfill) a ``(label, property)`` vertex index.

        Pattern matching and MERGE consult it for ``(n:Label {key: v})``
        shapes; creating an existing index is a no-op.
        """
        index_key = (label, key)
        if index_key in self._property_indexes:
            return
        bucket: dict[Any, set[int]] = {}
        for vertex_id in self._label_index.get(label, ()):
            value = self._vertices[vertex_id].properties.get(key)
            if value is not None:
                bucket.setdefault(value, set()).add(vertex_id)
        self._property_indexes[index_key] = bucket

    def drop_index(self, label: str, key: str) -> None:
        self._property_indexes.pop((label, key), None)

    def has_index(self, label: str, key: str) -> bool:
        return (label, key) in self._property_indexes

    def indexes(self) -> tuple[tuple[str, str], ...]:
        """All ``(label, key)`` pairs with an index."""
        return tuple(self._property_indexes)

    def lookup_index(self, label: str, key: str, value: Any) -> frozenset[int]:
        """Vertices with *label* whose *key* equals *value* (indexed)."""
        try:
            bucket = self._property_indexes[(label, key)]
        except KeyError:
            raise GraphError(f"no index on (:{label} {{{key}}})") from None
        return frozenset(bucket.get(freeze_value(value), ()))

    def _index_add(self, vertex_id: int, labels, properties) -> None:
        for (label, key), bucket in self._property_indexes.items():
            if label in labels:
                value = properties.get(key)
                if value is not None:
                    bucket.setdefault(value, set()).add(vertex_id)

    def _index_remove(self, vertex_id: int, labels, properties) -> None:
        for (label, key), bucket in self._property_indexes.items():
            if label in labels:
                value = properties.get(key)
                if value is not None:
                    entries = bucket.get(value)
                    if entries is not None:
                        entries.discard(vertex_id)
                        if not entries:
                            del bucket[value]

    # ------------------------------------------------------------------
    # mutations: vertices
    # ------------------------------------------------------------------

    def add_vertex(
        self,
        labels: Iterable[str] = (),
        properties: Mapping[str, Any] | None = None,
    ) -> int:
        """Create a vertex; returns its id."""
        vertex_id = self._next_vertex_id
        self._next_vertex_id += 1
        label_set = set(labels)
        props = {
            k: freeze_value(v) for k, v in (properties or {}).items() if v is not None
        }
        self._vertices[vertex_id] = _VertexRecord(label_set, props)
        self._out[vertex_id] = set()
        self._in[vertex_id] = set()
        self._out_by_type[vertex_id] = {}
        self._in_by_type[vertex_id] = {}
        for label in label_set:
            self._label_index.setdefault(label, set()).add(vertex_id)
        self._index_add(vertex_id, label_set, props)
        self._emit(
            ev.VertexAdded(vertex_id, frozenset(label_set), dict(props))
        )
        return vertex_id

    def remove_vertex(self, vertex_id: int, detach: bool = False) -> None:
        """Remove a vertex.

        Without ``detach``, removing a vertex with incident edges raises
        :class:`DanglingEdgeError` (plain Cypher ``DELETE`` semantics); with
        ``detach=True`` incident edges are removed first (``DETACH DELETE``),
        each emitting its own :class:`~repro.graph.events.EdgeRemoved`.
        """
        record = self._vertex(vertex_id)
        incident = self._out[vertex_id] | self._in[vertex_id]
        if incident:
            if not detach:
                raise DanglingEdgeError(
                    f"vertex {vertex_id} has {len(incident)} incident edge(s); "
                    "use detach=True to remove them"
                )
            for edge_id in sorted(incident):
                self.remove_edge(edge_id)
        for label in record.labels:
            self._label_index[label].discard(vertex_id)
        self._index_remove(vertex_id, record.labels, record.properties)
        del self._vertices[vertex_id]
        del self._out[vertex_id]
        del self._in[vertex_id]
        del self._out_by_type[vertex_id]
        del self._in_by_type[vertex_id]
        self._emit(
            ev.VertexRemoved(
                vertex_id, frozenset(record.labels), dict(record.properties)
            )
        )

    def add_label(self, vertex_id: int, label: str) -> None:
        record = self._vertex(vertex_id)
        if label in record.labels:
            return
        record.labels.add(label)
        self._label_index.setdefault(label, set()).add(vertex_id)
        self._index_add(vertex_id, {label}, record.properties)
        self._emit(ev.VertexLabelAdded(vertex_id, label))

    def remove_label(self, vertex_id: int, label: str) -> None:
        record = self._vertex(vertex_id)
        if label not in record.labels:
            return
        record.labels.discard(label)
        self._label_index[label].discard(vertex_id)
        self._index_remove(vertex_id, {label}, record.properties)
        self._emit(ev.VertexLabelRemoved(vertex_id, label))

    def set_vertex_property(self, vertex_id: int, key: str, value: Any) -> None:
        """Set (or, with ``value=None``, remove) a vertex property."""
        record = self._vertex(vertex_id)
        old = record.properties.get(key)
        new = freeze_value(value)
        if old == new and type(old) is type(new):
            return
        if old is not None:
            self._index_remove(vertex_id, record.labels, {key: old})
        if new is None:
            record.properties.pop(key, None)
        else:
            record.properties[key] = new
            self._index_add(vertex_id, record.labels, {key: new})
        self._emit(ev.VertexPropertySet(vertex_id, key, old, new))

    def _restore_vertex(
        self,
        vertex_id: int,
        labels: Iterable[str],
        properties: Mapping[str, Any],
    ) -> None:
        """Re-create a previously removed vertex under its original id.

        Used by transaction rollback and WAL replay; emits a normal
        :class:`~repro.graph.events.VertexAdded` event.
        """
        if vertex_id in self._vertices:
            raise GraphError(f"vertex id {vertex_id} already exists")
        label_set = set(labels)
        props = {k: freeze_value(v) for k, v in properties.items() if v is not None}
        self._vertices[vertex_id] = _VertexRecord(label_set, props)
        self._out[vertex_id] = set()
        self._in[vertex_id] = set()
        self._out_by_type[vertex_id] = {}
        self._in_by_type[vertex_id] = {}
        for label in label_set:
            self._label_index.setdefault(label, set()).add(vertex_id)
        self._index_add(vertex_id, label_set, props)
        self._next_vertex_id = max(self._next_vertex_id, vertex_id + 1)
        self._emit(ev.VertexAdded(vertex_id, frozenset(label_set), dict(props)))

    # ------------------------------------------------------------------
    # mutations: edges
    # ------------------------------------------------------------------

    def add_edge(
        self,
        source: int,
        target: int,
        edge_type: str,
        properties: Mapping[str, Any] | None = None,
    ) -> int:
        """Create a directed edge of *edge_type*; returns its id."""
        self._vertex(source)
        self._vertex(target)
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        props = {
            k: freeze_value(v) for k, v in (properties or {}).items() if v is not None
        }
        self._edges[edge_id] = _EdgeRecord(source, target, edge_type, props)
        self._type_index.setdefault(edge_type, set()).add(edge_id)
        self._out[source].add(edge_id)
        self._in[target].add(edge_id)
        self._out_by_type[source].setdefault(edge_type, set()).add(edge_id)
        self._in_by_type[target].setdefault(edge_type, set()).add(edge_id)
        self._emit(ev.EdgeAdded(edge_id, source, target, edge_type, dict(props)))
        return edge_id

    def remove_edge(self, edge_id: int) -> None:
        record = self._edge(edge_id)
        self._type_index[record.edge_type].discard(edge_id)
        self._out[record.source].discard(edge_id)
        self._in[record.target].discard(edge_id)
        self._typed_discard(self._out_by_type[record.source], record.edge_type, edge_id)
        self._typed_discard(self._in_by_type[record.target], record.edge_type, edge_id)
        del self._edges[edge_id]
        self._emit(
            ev.EdgeRemoved(
                edge_id,
                record.source,
                record.target,
                record.edge_type,
                dict(record.properties),
            )
        )

    def _restore_edge(
        self,
        edge_id: int,
        source: int,
        target: int,
        edge_type: str,
        properties: Mapping[str, Any],
    ) -> None:
        """Re-create a previously removed edge under its original id."""
        if edge_id in self._edges:
            raise GraphError(f"edge id {edge_id} already exists")
        self._vertex(source)
        self._vertex(target)
        props = {k: freeze_value(v) for k, v in properties.items() if v is not None}
        self._edges[edge_id] = _EdgeRecord(source, target, edge_type, props)
        self._type_index.setdefault(edge_type, set()).add(edge_id)
        self._out[source].add(edge_id)
        self._in[target].add(edge_id)
        self._out_by_type[source].setdefault(edge_type, set()).add(edge_id)
        self._in_by_type[target].setdefault(edge_type, set()).add(edge_id)
        self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        self._emit(ev.EdgeAdded(edge_id, source, target, edge_type, dict(props)))

    def set_edge_property(self, edge_id: int, key: str, value: Any) -> None:
        """Set (or, with ``value=None``, remove) an edge property."""
        record = self._edge(edge_id)
        old = record.properties.get(key)
        new = freeze_value(value)
        if old == new and type(old) is type(new):
            return
        if new is None:
            record.properties.pop(key, None)
        else:
            record.properties[key] = new
        self._emit(ev.EdgePropertySet(edge_id, key, old, new))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _vertex(self, vertex_id: int) -> _VertexRecord:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise EntityNotFoundError("vertex", vertex_id) from None

    def _edge(self, edge_id: int) -> _EdgeRecord:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise EntityNotFoundError("edge", edge_id) from None

    def has_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self._vertices

    def has_edge(self, edge_id: int) -> bool:
        return edge_id in self._edges

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def vertices(self, label: str | None = None) -> Iterator[int]:
        """Iterate vertex ids, optionally restricted to a label."""
        if label is None:
            return iter(self._vertices)
        return iter(self._label_index.get(label, ()))

    def label_count(self, label: str) -> int:
        """Number of vertices carrying *label* (the size of its bucket)."""
        return len(self._label_index.get(label, ()))

    def label_members(self, label: str) -> "set[int] | tuple":
        """Ids of the vertices carrying *label*, uncopied — read-only by
        contract, like :meth:`labels_view`.  Batch translation filters
        many ids by one label with C-level membership probes."""
        return self._label_index.get(label, ())

    def edges(self, edge_type: str | None = None) -> Iterator[int]:
        """Iterate edge ids, optionally restricted to a type."""
        if edge_type is None:
            return iter(self._edges)
        return iter(self._type_index.get(edge_type, ()))

    def edge_triples(self, edge_type: str | None = None) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(source, edge, target)`` triples — the ⇑ base relation."""
        for edge_id in self.edges(edge_type):
            record = self._edges[edge_id]
            yield record.source, edge_id, record.target

    def labels_of(self, vertex_id: int) -> frozenset[str]:
        return frozenset(self._vertex(vertex_id).labels)

    def labels_view(self, vertex_id: int) -> set[str]:
        """The vertex's label set *uncopied* — read-only by contract.

        Hot paths (the event router narrows candidates per routed property
        event) read labels without keeping them; handing out the internal
        set skips the frozenset copy :meth:`labels_of` pays.  Callers must
        neither mutate nor retain the result across graph mutations.
        """
        return self._vertex(vertex_id).labels

    def has_label(self, vertex_id: int, label: str) -> bool:
        return label in self._vertex(vertex_id).labels

    def type_of(self, edge_id: int) -> str:
        return self._edge(edge_id).edge_type

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        record = self._edge(edge_id)
        return record.source, record.target

    def source_of(self, edge_id: int) -> int:
        return self._edge(edge_id).source

    def target_of(self, edge_id: int) -> int:
        return self._edge(edge_id).target

    def vertex_properties(self, vertex_id: int) -> dict[str, Any]:
        """A copy of the vertex's property map (values are immutable)."""
        return dict(self._vertex(vertex_id).properties)

    def vertex_property(self, vertex_id: int, key: str, default: Any = None) -> Any:
        return self._vertex(vertex_id).properties.get(key, default)

    def vertex_property_column(self, vertex_ids: Iterable[int], key: str) -> list:
        """:meth:`vertex_property` for every id, in order — a pushed
        property column built with no Python call per id."""
        vertices = self._vertices
        return [vertices[v].properties.get(key) for v in vertex_ids]

    def edge_properties(self, edge_id: int) -> dict[str, Any]:
        return dict(self._edge(edge_id).properties)

    def edge_property(self, edge_id: int, key: str, default: Any = None) -> Any:
        return self._edge(edge_id).properties.get(key, default)

    def out_edges(self, vertex_id: int, edge_type: str | None = None) -> Iterator[int]:
        """Edges whose source is *vertex_id* (optionally type-filtered)."""
        if edge_type is None:
            return iter(self._out[self._require(vertex_id)])
        return iter(self._out_by_type[self._require(vertex_id)].get(edge_type, ()))

    def in_edges(self, vertex_id: int, edge_type: str | None = None) -> Iterator[int]:
        """Edges whose target is *vertex_id* (optionally type-filtered)."""
        if edge_type is None:
            return iter(self._in[self._require(vertex_id)])
        return iter(self._in_by_type[self._require(vertex_id)].get(edge_type, ()))

    def incident_edges(
        self, vertex_id: int, edge_type: str | None = None
    ) -> Iterator[int]:
        """Edges incident on *vertex_id*, each yielded once (loops included).

        Snapshots eagerly (safe to mutate the graph while consuming, and a
        missing vertex raises at the call site) without building the
        ``out | in`` union set the seed paid for — one list and O(1)
        membership probes instead of rehashing both sets.  With
        *edge_type* only that type's (indexed) buckets are walked.
        """
        vid = self._require(vertex_id)
        if edge_type is None:
            out, inc = self._out[vid], self._in[vid]
        else:
            out = self._out_by_type[vid].get(edge_type, ())
            inc = self._in_by_type[vid].get(edge_type, ())
        edges = list(out)
        edges.extend(edge_id for edge_id in inc if edge_id not in out)
        return iter(edges)

    def degree(self, vertex_id: int) -> int:
        vid = self._require(vertex_id)
        return len(self._out[vid]) + len(self._in[vid])

    def _require(self, vertex_id: int) -> int:
        if vertex_id not in self._vertices:
            raise EntityNotFoundError("vertex", vertex_id)
        return vertex_id

    @staticmethod
    def _typed_discard(buckets: dict[str, set[int]], edge_type: str, edge_id: int) -> None:
        entries = buckets.get(edge_type)
        if entries is not None:
            entries.discard(edge_id)
            if not entries:
                del buckets[edge_type]

    def labels(self) -> frozenset[str]:
        """All labels with at least one vertex."""
        return frozenset(l for l, vs in self._label_index.items() if vs)

    def edge_types(self) -> frozenset[str]:
        """All edge types with at least one edge."""
        return frozenset(t for t, es in self._type_index.items() if es)

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------

    def copy(self) -> "PropertyGraph":
        """A deep copy of the store (listeners are *not* copied).

        Ids are preserved, which makes copies suitable as before/after
        snapshots in differential tests.
        """
        clone = PropertyGraph()
        for vertex_id, record in self._vertices.items():
            clone._vertices[vertex_id] = _VertexRecord(
                set(record.labels), dict(record.properties)
            )
            clone._out[vertex_id] = set()
            clone._in[vertex_id] = set()
            clone._out_by_type[vertex_id] = {}
            clone._in_by_type[vertex_id] = {}
            for label in record.labels:
                clone._label_index.setdefault(label, set()).add(vertex_id)
        for edge_id, record in self._edges.items():
            clone._edges[edge_id] = _EdgeRecord(
                record.source, record.target, record.edge_type, dict(record.properties)
            )
            clone._type_index.setdefault(record.edge_type, set()).add(edge_id)
            clone._out[record.source].add(edge_id)
            clone._in[record.target].add(edge_id)
            clone._out_by_type[record.source].setdefault(
                record.edge_type, set()
            ).add(edge_id)
            clone._in_by_type[record.target].setdefault(
                record.edge_type, set()
            ).add(edge_id)
        clone._property_indexes = {
            index_key: {value: set(ids) for value, ids in bucket.items()}
            for index_key, bucket in self._property_indexes.items()
        }
        clone._next_vertex_id = self._next_vertex_id
        clone._next_edge_id = self._next_edge_id
        return clone

    def stats(self) -> dict[str, int]:
        """Cheap summary statistics, used by benchmark reporting."""
        return {
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "labels": len(self.labels()),
            "edge_types": len(self.edge_types()),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PropertyGraph(vertices={self.vertex_count}, edges={self.edge_count})"
        )


def graph_from_dicts(
    vertices: Iterable[Mapping[str, Any]],
    edges: Iterable[Mapping[str, Any]],
) -> tuple[PropertyGraph, dict[Any, int]]:
    """Build a graph from plain-dict descriptions; test/fixture convenience.

    Each vertex dict: ``{"key": <external id>, "labels": [...], **props}``.
    Each edge dict: ``{"src": key, "tgt": key, "type": str, **props}``.
    Returns the graph and the external-key → vertex-id mapping.
    """
    graph = PropertyGraph()
    key_to_id: dict[Any, int] = {}
    for spec in vertices:
        spec = dict(spec)
        key = spec.pop("key")
        labels = spec.pop("labels", ())
        if key in key_to_id:
            raise GraphError(f"duplicate vertex key {key!r}")
        key_to_id[key] = graph.add_vertex(labels=labels, properties=spec)
    for spec in edges:
        spec = dict(spec)
        src = key_to_id[spec.pop("src")]
        tgt = key_to_id[spec.pop("tgt")]
        edge_type = spec.pop("type")
        graph.add_edge(src, tgt, edge_type, properties=spec)
    return graph, key_to_id
