"""Interest-indexed event routing: dispatch O(affected), not O(registered).

Handing every graph event to every live input node, each of which re-runs
an isinstance chain plus label/type relevance checks that almost always
answer "not mine", would make event cost proportional to the number of
*registered* signatures — exactly what the paper's IVM property (change
cost ∝ affected view fraction) forbids at the dispatch layer, and what
Viatra/ingraph (refs [31, 33]) avoid with notification filters.

:class:`EventRouter` keeps the property: at registration each
:class:`~.nodes.input.VertexInputNode` / :class:`~.nodes.input.EdgeInputNode`
publishes an interest signature (:class:`VertexInterest` /
:class:`EdgeInterest` — event kinds × required labels / edge types ×
watched property keys), and the router maintains inverted indexes over
those signatures:

* vertex nodes keyed by a single *discriminator* label (any required
  label; a necessary condition for membership) plus a wildcard bucket for
  label-free nodes,
* label-watch and property-key buckets for vertex column changes,
* edge nodes keyed by edge type, endpoint label, endpoint property key and
  edge property key, each with its wildcard bucket.

``dispatch`` then touches only nodes whose relevance predicate can
possibly pass; the nodes' own exact checks stay in place, so routing is a
pure candidate-set reduction — a node the router skips is precisely a node
that would have produced an empty delta.  Wildcard buckets subsume their
keyed counterparts by construction (a node is registered keyed *or*
wildcarded, never both), so candidate collection never yields duplicates.
The engine dispatches every event and batch through its sharing layer's
router, the one dispatch path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..graph import events as ev
from ..graph.graph import PropertyGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .nodes.input import EdgeInputNode, VertexInputNode

@dataclass(frozen=True, slots=True)
class VertexInterest:
    """What a © input node can possibly react to."""

    #: required labels (∅ = every vertex)
    labels: frozenset[str]
    #: pushed-down property columns
    property_keys: frozenset[str]
    #: carries a properties(...) column — every key is relevant
    all_properties: bool
    #: carries a labels(...) column — every label flip is relevant
    label_values: bool


@dataclass(frozen=True, slots=True)
class EdgeInterest:
    """What a ⇑ input node can possibly react to."""

    #: admissible edge types (∅ = every type)
    types: frozenset[str]
    #: endpoint label constraints (src ∪ tgt)
    endpoint_labels: frozenset[str]
    #: carries an endpoint labels(...) column
    endpoint_label_values: bool
    #: pushed-down endpoint property columns
    vertex_property_keys: frozenset[str]
    all_vertex_properties: bool
    #: pushed-down edge property columns
    edge_property_keys: frozenset[str]
    all_edge_properties: bool


_EMPTY: dict = {}


class _Bucketed:
    """Keyed buckets plus one wildcard bucket, with ordered members.

    Buckets map ``id(node) → (seq, node)``; *seq* is the global
    registration order, so multi-bucket candidate sets are replayed in
    registration order.
    """

    __slots__ = ("keyed", "wildcard")

    def __init__(self) -> None:
        self.keyed: dict[str, dict[int, tuple[int, object]]] = {}
        self.wildcard: dict[int, tuple[int, object]] = {}

    def add_keyed(self, key: str, node: object, seq: int) -> tuple:
        self.keyed.setdefault(key, {})[id(node)] = (seq, node)
        return (self, key)

    def add_wildcard(self, node: object, seq: int) -> tuple:
        self.wildcard[id(node)] = (seq, node)
        return (self, None)

    def get(self, key: str) -> dict[int, tuple[int, object]]:
        return self.keyed.get(key, _EMPTY)

    def discard(self, key: str | None, node_id: int) -> None:
        """Drop one membership; emptied keyed buckets are deleted so the
        index never accumulates dead labels/types/keys."""
        if key is None:
            self.wildcard.pop(node_id, None)
            return
        bucket = self.keyed.get(key)
        if bucket is not None:
            bucket.pop(node_id, None)
            if not bucket:
                del self.keyed[key]


def _ordered(*buckets: dict[int, tuple[int, object]]) -> list[object]:
    """Nodes from *buckets*, deduplicated, in registration order."""
    live = [b for b in buckets if b]
    if not live:
        return _NO_NODES
    if len(live) == 1:
        return [node for _, node in live[0].values()]
    merged: dict[int, tuple[int, object]] = {}
    for bucket in live:
        merged.update(bucket)
    return [node for _, node in sorted(merged.values())]


_NO_NODES: list = []


class EventRouter:
    """Inverted interest indexes over live input nodes.

    Owned by the engine's :class:`~repro.rete.sharing.SharingLayer`.
    ``register_*`` is called when an input node goes live,
    ``unregister`` when the layer's ``prune()`` drops it.
    """

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self._seq = 0
        # cheap always-on traffic counters (the Node-counter precedent):
        # sampled into the metrics registry at snapshot time.  Candidate
        # visits vs. registered nodes is the dispatch win; union-cache
        # hits/misses expose the memoisation's effectiveness.
        self.events_routed = 0
        self.batches_routed = 0
        self.candidates_visited = 0
        self.union_hits = 0
        self.union_misses = 0
        # vertex-node indexes
        self._v_membership = _Bucketed()  # discriminator label / label-free
        self._v_label_watch = _Bucketed()  # required label / labels() column
        self._v_prop_watch = _Bucketed()  # property key / properties() column
        # edge-node indexes
        self._e_type = _Bucketed()  # edge type / type-free
        self._e_label_watch = _Bucketed()  # endpoint label / labels() column
        self._e_vprop_watch = _Bucketed()  # endpoint property key / wildcard
        self._e_eprop_watch = _Bucketed()  # edge property key / wildcard
        # id(node) → (interest, [(bucketed index, key-or-wildcard)])
        self._registered: dict[int, tuple[object, list[tuple]]] = {}
        # hot multi-bucket candidate unions, keyed by event signature;
        # registrations change bucket contents, so any register/unregister
        # clears the whole cache (events vastly outnumber registrations)
        self._union_cache: dict[tuple, list[object]] = {}

    def __len__(self) -> int:
        return len(self._registered)

    #: cap on memoised unions — signatures are data-dependent (property
    #: keys, label sets), so an adversarial stream could otherwise grow
    #: the cache for the engine's lifetime; overflow just resets it
    _UNION_CACHE_LIMIT = 1024

    def _union(self, cache_key: tuple, *buckets) -> list[object]:
        """Memoised :func:`_ordered` for per-event candidate collection.

        The same event signature (a label set, an edge type, a property
        key) recurs for the lifetime of a workload; merging and re-sorting
        its buckets per event was pure rework.  Empty unions (signatures
        no node is interested in) are not cached — they are free to
        recompute and would otherwise leak one entry per distinct
        irrelevant key.
        """
        cached = self._union_cache.get(cache_key)
        if cached is None:
            self.union_misses += 1
            cached = _ordered(*buckets)
            if cached:
                if len(self._union_cache) >= self._UNION_CACHE_LIMIT:
                    self._union_cache.clear()
                self._union_cache[cache_key] = cached
        else:
            self.union_hits += 1
        return cached

    # -- registration -------------------------------------------------------

    def register_vertex_node(self, node: "VertexInputNode") -> None:
        self._union_cache.clear()
        interest = node.interest()
        seq = self._seq
        self._seq += 1
        buckets: list[tuple] = []
        if interest.labels:
            # any one required label is a necessary membership condition
            discriminator = min(interest.labels)
            buckets.append(self._v_membership.add_keyed(discriminator, node, seq))
        else:
            buckets.append(self._v_membership.add_wildcard(node, seq))
        if interest.label_values:
            buckets.append(self._v_label_watch.add_wildcard(node, seq))
        else:
            for label in interest.labels:
                buckets.append(self._v_label_watch.add_keyed(label, node, seq))
        if interest.all_properties:
            buckets.append(self._v_prop_watch.add_wildcard(node, seq))
        else:
            for key in interest.property_keys:
                buckets.append(self._v_prop_watch.add_keyed(key, node, seq))
        self._registered[id(node)] = (interest, buckets)

    def register_edge_node(self, node: "EdgeInputNode") -> None:
        self._union_cache.clear()
        interest = node.interest()
        seq = self._seq
        self._seq += 1
        buckets: list[tuple] = []
        if interest.types:
            for edge_type in interest.types:
                buckets.append(self._e_type.add_keyed(edge_type, node, seq))
        else:
            buckets.append(self._e_type.add_wildcard(node, seq))
        if interest.endpoint_label_values:
            buckets.append(self._e_label_watch.add_wildcard(node, seq))
        else:
            for label in interest.endpoint_labels:
                buckets.append(self._e_label_watch.add_keyed(label, node, seq))
        if interest.all_vertex_properties:
            buckets.append(self._e_vprop_watch.add_wildcard(node, seq))
        else:
            for key in interest.vertex_property_keys:
                buckets.append(self._e_vprop_watch.add_keyed(key, node, seq))
        if interest.all_edge_properties:
            buckets.append(self._e_eprop_watch.add_wildcard(node, seq))
        else:
            for key in interest.edge_property_keys:
                buckets.append(self._e_eprop_watch.add_keyed(key, node, seq))
        self._registered[id(node)] = (interest, buckets)

    def unregister(self, node: object) -> None:
        entry = self._registered.pop(id(node), None)
        if entry is None:
            return
        self._union_cache.clear()
        for bucketed, key in entry[1]:
            bucketed.discard(key, id(node))

    # -- candidate selection ------------------------------------------------

    def _vertex_membership_candidates(
        self, labels: Iterable[str]
    ) -> list[object]:
        """Vertex nodes whose required labels can be ⊆ *labels*.

        ``frozenset(labels)`` is the cache key; when *labels* already is a
        frozenset (lifecycle events carry one) this is a no-copy identity.
        """
        key = labels if isinstance(labels, frozenset) else frozenset(labels)
        return self._union(
            ("vm", key),
            self._v_membership.wildcard,
            *[self._v_membership.get(label) for label in key],
        )

    def vertex_candidates(self, event: ev.GraphEvent) -> list[object]:
        """© nodes that may produce a non-empty delta for *event*."""
        if isinstance(event, (ev.VertexAdded, ev.VertexRemoved)):
            return self._vertex_membership_candidates(event.labels)
        if isinstance(event, (ev.VertexLabelAdded, ev.VertexLabelRemoved)):
            return self._union(
                ("vl", event.label),
                self._v_label_watch.wildcard,
                self._v_label_watch.get(event.label),
            )
        if isinstance(event, ev.VertexPropertySet):
            # membership first (one no-copy labels read replaces N lookups),
            # then the per-node key filter on the usually tiny candidate set
            key = event.key
            base = self._vertex_membership_candidates(
                self.graph.labels_view(event.vertex_id)
            )
            return [
                node
                for node in base
                if node._wants_properties or key in node._property_keys
            ]
        return _NO_NODES

    def edge_candidates(self, event: ev.GraphEvent) -> list[object]:
        """⇑ nodes that may produce a non-empty delta for *event*."""
        if isinstance(event, (ev.EdgeAdded, ev.EdgeRemoved)):
            return self._union(
                ("et", event.edge_type),
                self._e_type.wildcard,
                self._e_type.get(event.edge_type),
            )
        if isinstance(event, ev.EdgePropertySet):
            candidates = self._union(
                ("ee", event.key),
                self._e_eprop_watch.wildcard,
                self._e_eprop_watch.get(event.key),
            )
            if not candidates:
                return candidates
            edge_type = self.graph.type_of(event.edge_id)
            return [
                node
                for node in candidates
                if not node.types or edge_type in node.types
            ]
        if isinstance(event, (ev.VertexLabelAdded, ev.VertexLabelRemoved)):
            return self._union(
                ("el", event.label),
                self._e_label_watch.wildcard,
                self._e_label_watch.get(event.label),
            )
        if isinstance(event, ev.VertexPropertySet):
            return self._union(
                ("ev", event.key),
                self._e_vprop_watch.wildcard,
                self._e_vprop_watch.get(event.key),
            )
        return _NO_NODES

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, event: ev.GraphEvent) -> None:
        """Feed *event* to every input node it can possibly concern.

        Vertex nodes run before edge nodes, and nodes within each group in
        registration order.
        """
        self.events_routed += 1
        vertex_nodes = self.vertex_candidates(event)
        edge_nodes = self.edge_candidates(event)
        self.candidates_visited += len(vertex_nodes) + len(edge_nodes)
        for node in vertex_nodes:
            node.on_event(event)
        for node in edge_nodes:
            node.on_event(event)

    def dispatch_batch(self, batch) -> None:
        """Feed one consolidated batch to the input nodes it concerns.

        Candidates are looked up by the batch's group keys — its labels,
        edge types, flipped labels and moved property keys — never per
        record; each candidate then translates the groups its own
        signature names.  Vertex nodes run before edge nodes, each group
        in registration order.
        """
        self.batches_routed += 1
        vertex_nodes = self._batch_vertex_candidates(batch)
        edge_nodes = self._batch_edge_candidates(batch)
        self.candidates_visited += len(vertex_nodes) + len(edge_nodes)
        for node in vertex_nodes:
            node.emit_batch(batch)
        for node in edge_nodes:
            node.emit_batch(batch)

    @staticmethod
    def _keyed(bucketed: _Bucketed, keys) -> list[dict]:
        """The wildcard and keyed buckets of *keys* (a batch group map,
        whose ``None`` key is no bucket), or none when *keys* is empty."""
        if not keys:
            return []
        return [bucketed.wildcard, *[bucketed.get(key) for key in keys if key is not None]]

    def _batch_vertex_candidates(self, batch) -> list[object]:
        # added/removed vertices reach the nodes their labels admit;
        # changed ones the nodes watching a flipped label or a moved key
        return _ordered(
            *self._keyed(self._v_membership, batch.vertices),
            *self._keyed(self._v_label_watch, batch.label_flips),
            *self._keyed(self._v_prop_watch, batch.key_changes),
        )

    def _batch_edge_candidates(self, batch) -> list[object]:
        return _ordered(
            *self._keyed(self._e_type, batch.edges),
            *self._keyed(self._e_label_watch, batch.label_flips),
            *self._keyed(self._e_vprop_watch, batch.key_changes),
        )
