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
* adjacency per edge type (expansion and the non-incremental evaluator):
  ``edge type → vertex → star``, where a star holding one edge is that
  edge's bare ``int`` and a ``set`` appears only at the second edge.

Almost nothing the store holds is tracked by the cyclic garbage collector:
edge records are ``(source, target, type)`` tuples of atoms, properties sit
in dicts of their own (CPython never untracks a tuple holding a dict), each
vertex points at an interned ``frozenset`` shared by every vertex with the
same labels, and one-edge stars are ints.  The containers the collector
walks are the ≥ 2-edge stars, the index sets and one set per label
combination.

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
from .values import freeze_value, same_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .transactions import Transaction

Listener = Callable[[ev.GraphEvent], None]
# edge type → vertex → star: the edge's bare int, or a set of ≥ 2 edges
Adjacency = dict[str, dict[int, Any]]


def _frozen(properties: Mapping[str, Any]) -> dict[str, Any]:
    return {k: freeze_value(v) for k, v in properties.items() if v is not None}


def _link(adjacency: Adjacency, edge_type: str, vertex: int, edge_id: int) -> None:
    """Add *edge_id* to *vertex*'s star of *edge_type* — the edge's bare
    ``int`` while it is alone, a ``set`` from the second edge on."""
    stars = adjacency.get(edge_type)
    if stars is None:
        adjacency[edge_type] = {vertex: edge_id}
        return
    star = stars.get(vertex)
    if star is None:
        stars[vertex] = edge_id
    elif type(star) is int:
        stars[vertex] = {star, edge_id}
    else:
        star.add(edge_id)


def _unlink(adjacency: Adjacency, edge_type: str, vertex: int, edge_id: int) -> None:
    """Undo :func:`_link`: a set collapses back to an ``int`` at one edge,
    and an emptied star leaves no key behind."""
    stars = adjacency[edge_type]
    star = stars[vertex]
    if type(star) is int:
        del stars[vertex]
    else:
        star.discard(edge_id)
        if len(star) == 1:
            stars[vertex] = star.pop()


def _typed(adjacency: Adjacency, edge_type: str, vertex: int) -> "set[int] | tuple":
    """The edges of one star, as an iterable (two dict probes)."""
    stars = adjacency.get(edge_type)
    star = () if stars is None else stars.get(vertex, ())
    return (star,) if type(star) is int else star


def _untyped(adjacency: Adjacency, vertex: int) -> list[int]:
    """The edges of every type's star of *vertex*, types in first-seen order."""
    edges: list[int] = []
    for stars in adjacency.values():
        star = stars.get(vertex)
        if type(star) is int:
            edges.append(star)
        elif star is not None:
            edges.extend(star)
    return edges


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
        # vertex → its interned label set; one frozenset per combination
        self._vertices: dict[int, frozenset[str]] = {}
        self._label_sets: dict[frozenset[str], frozenset[str]] = {}
        self._vprops: dict[int, dict[str, Any]] = {}
        # edge → (source, target, type); its properties live in _eprops
        self._edges: dict[int, tuple[int, int, str]] = {}
        self._eprops: dict[int, dict[str, Any]] = {}
        self._label_index: dict[str, set[int]] = {}
        self._type_index: dict[str, set[int]] = {}
        self._out: Adjacency = {}
        self._in: Adjacency = {}
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
            value = self._vprops[vertex_id].get(key)
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
        self._restore_vertex(vertex_id, labels, properties or {})
        return vertex_id

    def remove_vertex(self, vertex_id: int, detach: bool = False) -> None:
        """Remove a vertex.

        Without ``detach``, removing a vertex with incident edges raises
        :class:`DanglingEdgeError` (plain Cypher ``DELETE`` semantics); with
        ``detach=True`` incident edges are removed first (``DETACH DELETE``),
        each emitting its own :class:`~repro.graph.events.EdgeRemoved`.
        """
        labels = self._vertex(vertex_id)
        incident = list(self.incident_edges(vertex_id))
        if incident:
            if not detach:
                raise DanglingEdgeError(
                    f"vertex {vertex_id} has {len(incident)} incident edge(s); "
                    "use detach=True to remove them"
                )
            for edge_id in sorted(incident):
                self.remove_edge(edge_id)
        for label in labels:
            self._label_index[label].discard(vertex_id)
        properties = self._vprops.pop(vertex_id)
        self._index_remove(vertex_id, labels, properties)
        del self._vertices[vertex_id]
        self._emit(ev.VertexRemoved(vertex_id, labels, properties))

    def _relabel(self, vertex_id: int, labels: frozenset[str]) -> frozenset[str]:
        """Point *vertex_id* at the interned set equal to *labels*."""
        interned = self._vertices[vertex_id] = self._label_sets.setdefault(labels, labels)
        return interned

    def add_label(self, vertex_id: int, label: str) -> None:
        labels = self._vertex(vertex_id)
        if label in labels:
            return
        self._relabel(vertex_id, labels | {label})
        self._label_index.setdefault(label, set()).add(vertex_id)
        self._index_add(vertex_id, (label,), self._vprops[vertex_id])
        self._emit(ev.VertexLabelAdded(vertex_id, label))

    def remove_label(self, vertex_id: int, label: str) -> None:
        labels = self._vertex(vertex_id)
        if label not in labels:
            return
        self._relabel(vertex_id, labels - {label})
        self._label_index[label].discard(vertex_id)
        self._index_remove(vertex_id, (label,), self._vprops[vertex_id])
        self._emit(ev.VertexLabelRemoved(vertex_id, label))

    def set_vertex_property(self, vertex_id: int, key: str, value: Any) -> None:
        """Set (or, with ``value=None``, remove) a vertex property."""
        labels = self._vertex(vertex_id)
        properties = self._vprops[vertex_id]
        old = properties.get(key)
        new = freeze_value(value)
        if old is new or (old == new and same_value(old, new)):
            return
        if old is not None:
            self._index_remove(vertex_id, labels, {key: old})
        if new is None:
            properties.pop(key, None)
        else:
            properties[key] = new
            self._index_add(vertex_id, labels, {key: new})
        self._emit(ev.VertexPropertySet(vertex_id, key, old, new))

    def _restore_vertex(
        self,
        vertex_id: int,
        labels: Iterable[str],
        properties: Mapping[str, Any],
    ) -> None:
        """Create a vertex under *vertex_id*: the next fresh id for
        :meth:`add_vertex`, the original one for transaction rollback and
        WAL replay.  Emits a normal :class:`~repro.graph.events.VertexAdded`.
        """
        if vertex_id in self._vertices:
            raise GraphError(f"vertex id {vertex_id} already exists")
        # freeze first: a rejected value must leave no trace of the vertex
        props = _frozen(properties)
        label_set = self._relabel(vertex_id, frozenset(labels))
        self._vprops[vertex_id] = props
        for label in label_set:
            self._label_index.setdefault(label, set()).add(vertex_id)
        self._index_add(vertex_id, label_set, props)
        self._next_vertex_id = max(self._next_vertex_id, vertex_id + 1)
        self._emit(ev.VertexAdded(vertex_id, label_set, dict(props)))

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
        edge_id = self._next_edge_id
        self._restore_edge(edge_id, source, target, edge_type, properties or {})
        return edge_id

    def remove_edge(self, edge_id: int) -> None:
        source, target, edge_type = self._edge(edge_id)
        self._type_index[edge_type].discard(edge_id)
        _unlink(self._out, edge_type, source, edge_id)
        _unlink(self._in, edge_type, target, edge_id)
        del self._edges[edge_id]
        properties = self._eprops.pop(edge_id)
        self._emit(ev.EdgeRemoved(edge_id, source, target, edge_type, properties))

    def _restore_edge(
        self,
        edge_id: int,
        source: int,
        target: int,
        edge_type: str,
        properties: Mapping[str, Any],
    ) -> None:
        """Create an edge under *edge_id* (fresh for :meth:`add_edge`, the
        original for rollback and WAL replay)."""
        if edge_id in self._edges:
            raise GraphError(f"edge id {edge_id} already exists")
        self._vertex(source)
        self._vertex(target)
        props = _frozen(properties)
        self._link_edge(edge_id, source, target, edge_type, props)
        self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        self._emit(ev.EdgeAdded(edge_id, source, target, edge_type, dict(props)))

    def _link_edge(
        self, edge_id: int, source: int, target: int, edge_type: str, props: dict
    ) -> None:
        self._edges[edge_id] = (source, target, edge_type)
        self._eprops[edge_id] = props
        self._type_index.setdefault(edge_type, set()).add(edge_id)
        _link(self._out, edge_type, source, edge_id)
        _link(self._in, edge_type, target, edge_id)

    def set_edge_property(self, edge_id: int, key: str, value: Any) -> None:
        """Set (or, with ``value=None``, remove) an edge property."""
        self._edge(edge_id)
        properties = self._eprops[edge_id]
        old = properties.get(key)
        new = freeze_value(value)
        if old is new or (old == new and same_value(old, new)):
            return
        if new is None:
            properties.pop(key, None)
        else:
            properties[key] = new
        self._emit(ev.EdgePropertySet(edge_id, key, old, new))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _vertex(self, vertex_id: int) -> frozenset[str]:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise EntityNotFoundError("vertex", vertex_id) from None

    def _edge(self, edge_id: int) -> tuple[int, int, str]:
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
        """Ids of the vertices carrying *label*: the live index bucket,
        uncopied, so it is read-only by contract (the graph mutates it in
        place, unlike the immutable sets :meth:`labels_view` returns).
        Batch translation filters many ids by one label with C-level
        membership probes."""
        return self._label_index.get(label, ())

    def edges(self, edge_type: str | None = None) -> Iterator[int]:
        """Iterate edge ids, optionally restricted to a type."""
        if edge_type is None:
            return iter(self._edges)
        return iter(self._type_index.get(edge_type, ()))

    def edge_triples(self, edge_type: str | None = None) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(source, edge, target)`` triples — the ⇑ base relation."""
        records = self._edges
        for edge_id in self.edges(edge_type):
            source, target, _ = records[edge_id]
            yield source, edge_id, target

    def labels_of(self, vertex_id: int) -> frozenset[str]:
        """The vertex's labels: the interned set every vertex with the same
        labels shares, so no copy is made."""
        return self._vertex(vertex_id)

    def labels_view(self, vertex_id: int) -> frozenset[str]:
        """The vertex's label set, uncopied and immutable — the same object
        as :meth:`labels_of`.  A label flip swaps the vertex to another
        interned set and never mutates this one, so a caller may keep it as
        a before image."""
        return self._vertex(vertex_id)

    def has_label(self, vertex_id: int, label: str) -> bool:
        return label in self._vertex(vertex_id)

    def type_of(self, edge_id: int) -> str:
        return self._edge(edge_id)[2]

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        source, target, _ = self._edge(edge_id)
        return source, target

    def source_of(self, edge_id: int) -> int:
        return self._edge(edge_id)[0]

    def target_of(self, edge_id: int) -> int:
        return self._edge(edge_id)[1]

    def vertex_properties(self, vertex_id: int) -> dict[str, Any]:
        """A copy of the vertex's property map (values are immutable)."""
        self._vertex(vertex_id)
        return dict(self._vprops[vertex_id])

    def vertex_property(self, vertex_id: int, key: str, default: Any = None) -> Any:
        self._vertex(vertex_id)
        return self._vprops[vertex_id].get(key, default)

    def vertex_property_column(self, vertex_ids: Iterable[int], key: str) -> list:
        """:meth:`vertex_property` for every id, in order — a pushed
        property column built with no Python call per id."""
        vprops = self._vprops
        return [vprops[v].get(key) for v in vertex_ids]

    def edge_properties(self, edge_id: int) -> dict[str, Any]:
        self._edge(edge_id)
        return dict(self._eprops[edge_id])

    def edge_property(self, edge_id: int, key: str, default: Any = None) -> Any:
        self._edge(edge_id)
        return self._eprops[edge_id].get(key, default)

    def out_edges(self, vertex_id: int, edge_type: str | None = None) -> Iterator[int]:
        """Edges whose source is *vertex_id* (optionally type-filtered)."""
        vid = self._require(vertex_id)
        if edge_type is None:
            return iter(_untyped(self._out, vid))
        return iter(_typed(self._out, edge_type, vid))

    def in_edges(self, vertex_id: int, edge_type: str | None = None) -> Iterator[int]:
        """Edges whose target is *vertex_id* (optionally type-filtered)."""
        vid = self._require(vertex_id)
        if edge_type is None:
            return iter(_untyped(self._in, vid))
        return iter(_typed(self._in, edge_type, vid))

    def incident_edges(
        self, vertex_id: int, edge_type: str | None = None
    ) -> Iterator[int]:
        """Edges incident on *vertex_id*, each yielded once (loops included).

        Snapshots eagerly (safe to mutate the graph while consuming, and a
        missing vertex raises at the call site): the out edges, then the in
        edges whose source is another vertex (a loop is already out).  With
        *edge_type* only that type's two stars are read.
        """
        vid = self._require(vertex_id)
        if edge_type is None:
            edges, inc = _untyped(self._out, vid), _untyped(self._in, vid)
        else:
            edges = list(_typed(self._out, edge_type, vid))
            inc = _typed(self._in, edge_type, vid)
        records = self._edges
        edges.extend(edge_id for edge_id in inc if records[edge_id][0] != vid)
        return iter(edges)

    def star_triples(
        self, vertex_ids: Iterable[int], edge_type: str | None, outgoing: bool
    ) -> list[tuple[int, int, int]]:
        """``(source, edge, target)`` of the edges leaving (*outgoing*) or
        entering each of *vertex_ids*, of *edge_type* (``None``: every
        type), vertex by vertex — one star read each, and none for a
        missing vertex.  The keyed read a probe-side join makes in place
        of a memory."""
        adjacency = self._out if outgoing else self._in
        if edge_type is None:
            by_type = list(adjacency.values())
        else:
            stars = adjacency.get(edge_type)
            by_type = [] if stars is None else [stars]
        records = self._edges
        triples: list[tuple[int, int, int]] = []
        for vertex in vertex_ids:
            for stars in by_type:
                star = stars.get(vertex)
                if star is None:
                    continue
                if type(star) is int:
                    star = (star,)
                if outgoing:
                    triples += [(vertex, e, records[e][1]) for e in star]
                else:
                    triples += [(records[e][0], e, vertex) for e in star]
        return triples

    def star_count(self, edge_type: str | None, outgoing: bool) -> int:
        """How many vertices have edges of *edge_type* (``None``: of any
        type, counted per type) leaving (*outgoing*) or entering them."""
        adjacency = self._out if outgoing else self._in
        if edge_type is None:
            return sum(map(len, adjacency.values()))
        return len(adjacency.get(edge_type, ()))

    def edge_record(self, edge_id: int) -> "tuple[int, int, str] | None":
        """``(source, target, type)`` of *edge_id*, or ``None`` when there
        is no such edge."""
        return self._edges.get(edge_id)

    def degree(self, vertex_id: int) -> int:
        vid = self._require(vertex_id)
        return len(_untyped(self._out, vid)) + len(_untyped(self._in, vid))

    def _require(self, vertex_id: int) -> int:
        if vertex_id not in self._vertices:
            raise EntityNotFoundError("vertex", vertex_id)
        return vertex_id

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
        snapshots in differential tests.  Label sets and edge records are
        immutable, so the copy shares them.
        """
        clone = PropertyGraph()
        clone._vertices = dict(self._vertices)
        clone._label_sets = dict(self._label_sets)
        clone._vprops = {v: dict(props) for v, props in self._vprops.items()}
        clone._label_index = {l: set(vs) for l, vs in self._label_index.items()}
        for edge_id, (source, target, edge_type) in self._edges.items():
            props = dict(self._eprops[edge_id])
            clone._link_edge(edge_id, source, target, edge_type, props)
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
