"""Cross-view subnetwork sharing (classic Rete node sharing).

The engine owns one :class:`SharingLayer`, and every view's network is
built through it, so node sharing is a property of the network, not a
mode:

* **input nodes** are cached by base-relation signature — two views over
  ``(p:Post {lang})`` feed from one
  :class:`~.nodes.input.VertexInputNode`, so each graph event is
  translated into tuples once per distinct signature, and the layer's
  :class:`~.router.EventRouter` offers it only to the nodes it can
  concern;
* **interior subplans** (σ, π, δ, ω, γ, ⋈, ▷, ⟕, ∪, ⋈*) are cached by the
  canonical :mod:`~repro.compiler.fingerprint` of the FRA subtree they
  compute, so two views that both need ``σ(⋈(©, ⇑))`` share one join
  memory and pay the per-event join work once.  Entries are refcounted
  per view and released on detach; ``prune()`` cascades the release down
  shared chains until only live subplans remain;
* **parameterised selections** over a binding-free core share across
  *differing* bindings: one
  :class:`~.nodes.unary.BindingIndexedSelectionNode` per generalised σ
  shape, fed by the core below it, with one partition per live binding.
  Partitions are ordinary refcounted entries under
  :data:`BINDING_TIER`-tagged keys, so refcounting, stats and targeted
  activation are the same machinery; only their drop path differs (the
  binding leaves the node; the node leaves the core with its last
  binding).  The engine builds a query's views in this lifted form once
  a second distinct binding of its shape registers (see
  :meth:`~.engine.IncrementalEngine._registered_plan`).

ingraph and Viatra (the paper's lineage, refs [31, 33]) both rely on
subnetwork sharing to keep many-view workloads affordable.

Late registration is handled by *targeted activation*: when a view joins a
live node, the current-state delta is applied only to the new view's
subscription edges, never re-emitted to existing subscribers.  Input nodes
build that delta from the graph, in columns; interior nodes reconstruct it
from their memories, in rows transposed once (both via
``state_columns``), with stateless nodes derived on demand by replaying
their upstreams' state through the node's pure ``transform``.  A new
binding joining a live binding-indexed σ does not fold the whole shared
core for its handful of rows: its partition hands its equality conjuncts
down as a *restriction* and the first stateful node below answers just
the rows that can pass (one column scan plus probes), the partition's
predicate confirming each.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..algebra import ops
from ..algebra.expressions import EvalContext
from ..compiler.fingerprint import (
    SubplanFingerprint,
    fingerprint,
    generalized_fingerprint,
)
from ..graph.graph import PropertyGraph
from ..graph.values import ListValue, MapValue, PathValue, freeze_value
from .deltas import ColumnDelta
from .nodes.base import Node, Propagation
from .nodes.input import EdgeInputNode, UnitNode, VertexInputNode
from .nodes.unary import BindingIndexedSelectionNode, SelectionPartitionNode
from .router import EventRouter

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class SharingStats:
    """Cache effectiveness counters, sampled into the engine's metrics."""

    vertex_requests: int = 0
    vertex_nodes: int = 0
    edge_requests: int = 0
    edge_nodes: int = 0
    unit_requests: int = 0
    subplan_requests: int = 0
    subplan_hits: int = 0
    subplan_nodes: int = 0
    binding_nodes: int = 0
    binding_partitions: int = 0
    # a new binding joining a live binding-indexed σ: the whole core below
    # it is reused, though the partition lookup itself counts as a miss
    binding_core_hits: int = 0
    release_underflows: int = 0
    # refcount traffic (observability): every successful acquire/release
    # pair and every node dropped by prune()
    acquires: int = 0
    releases: int = 0
    pruned: int = 0
    # targeted-activation work: rows read out of node memories (or the
    # graph) to answer state_delta() — the answer's rows plus the slots a
    # restricted look-up scanned and the distinct hit keys it probed the
    # index for — against rows handed over
    replay_rows_scanned: int = 0
    replay_rows_emitted: int = 0

    @property
    def requests(self) -> int:
        return self.vertex_requests + self.edge_requests + self.unit_requests

    @property
    def nodes(self) -> int:
        return self.vertex_nodes + self.edge_nodes + (1 if self.unit_requests else 0)


_MISSING_BINDING = ("$missing",)


def binding_key(value: Any) -> tuple:
    """An equality key for one parameter binding.

    Python conflates ``1 == True == 1.0``, so raw values would let a
    view reuse a subplan evaluated under a differently-*typed* binding:
    every key therefore pairs a type tag with the value.  Keys hold one
    compact form of the binding (atoms stay themselves; collections
    become plain tagged tuples; paths keep both their vertex and edge
    sequences — their ``repr`` alone elides edges) rather than the frozen
    value *plus* a ``repr`` of it, so a large bound collection is no
    longer pinned twice in every cache/catalog key that mentions it.
    """
    return _binding_key_form(freeze_value(value))


def _binding_key_form(frozen: Any) -> tuple:
    if isinstance(frozen, PathValue):
        return ("path", frozen.vertices, frozen.edges)
    if isinstance(frozen, ListValue):
        return ("list", tuple(_binding_key_form(v) for v in frozen))
    if isinstance(frozen, MapValue):
        return ("map", tuple((k, _binding_key_form(v)) for k, v in frozen.items()))
    return (type(frozen).__name__, frozen)


def parameter_bindings(
    fp: SubplanFingerprint, parameters: Mapping[str, Any]
) -> tuple | None:
    """Resolved bindings of exactly the parameters *fp* mentions.

    ``None`` signals an unhashable binding (the subtree is then
    uncacheable/unmatchable); unbound parameters get a sentinel so two
    plans that both leave ``$x`` unbound still agree.
    """
    if not fp.parameters:
        return ()
    try:
        bindings = tuple(
            (name, binding_key(parameters[name]))
            if name in parameters
            else (name, _MISSING_BINDING)
            for name in sorted(fp.parameters)
        )
        hash(bindings)
    except TypeError:
        return None
    return bindings


def subplan_cache_key(
    op: ops.Operator, parameters: Mapping[str, Any]
) -> tuple | None:
    """Canonical cache/match key for *op*'s subtree, or ``None``.

    The key pairs the alpha-equivalent structural fingerprint with the
    resolved bindings of exactly the parameters the subtree mentions: a
    subtree's node semantics follow from its plan alone, so no build
    option enters the key.  Both the sharing layer and the
    view-answering catalog key by this, which is what lets a one-shot
    query's plan be matched directly against live view roots.
    """
    fp = fingerprint(op)
    if fp is None:
        return None
    bindings = parameter_bindings(fp, parameters)
    if bindings is None:
        return None
    return (fp, bindings)


@dataclass
class _SubplanEntry:
    """One cached interior node: who feeds it, and how many views hold it."""

    node: Node
    upstreams: tuple[tuple[Node, int], ...]
    refcount: int = 0


class _BindingTier:
    """Singleton head of binding-partition cache keys.

    Partition entries live in the same ``_subplans`` map as resolved-key
    entries (so refcounting, stats and ``state_delta`` reconstruction are
    shared machinery); the identity-singleton head
    keeps them unmistakable — a resolved key always starts with a
    :class:`~repro.compiler.fingerprint.SubplanFingerprint`.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "σ∂"


BINDING_TIER = _BindingTier()


@dataclass
class _ParamNodeEntry:
    """One binding-indexed σ node: its shared core and its partitions.

    The node itself is *not* refcounted — it lives exactly as long as it
    has partitions, and each partition is an ordinary refcounted
    ``_subplans`` entry.  ``prune()`` therefore drops individual bindings
    first; only the last partition's drop detaches the node from its core
    (which may then cascade the core itself out of the layer).
    """

    node: BindingIndexedSelectionNode
    upstream: Node
    side: int


@dataclass
class SharingLayer:
    """Engine-owned cache of live input nodes and interior subplans.

    Input nodes are keyed by signature and register their interest with
    the layer's :class:`~.router.EventRouter`, through which the engine
    dispatches every event and batch; ``prune()`` withdraws the interests
    of dropped nodes.

    The network builder asks :func:`subplan_cache_key` for a cache key
    before building any interior node; on a hit it cuts the whole subtree
    over to the cached node, on a miss it hands the freshly built node to
    :meth:`subplan_adopt`.  Ownership is the layer's: a shared node
    outlives the view that built it for as long as any view (or any live
    downstream shared subplan) still needs it.

    ``acquire``/``release`` refcount entries per registered view;
    :meth:`prune` drops entries whose refcount is zero *and* that no live
    subscriber still reads, unsubscribing them from their upstreams — which
    can free upstream shared subplans and, finally, input nodes, so one
    pass cascades the release down the whole shared chain.  A dead
    subplan is dropped at once: nothing keeps maintaining state no view
    reads.
    """

    graph: PropertyGraph
    stats: SharingStats = field(default_factory=SharingStats)
    #: the engine's propagations in flight, for the joins with a probe side
    propagation: Propagation = field(default_factory=Propagation)

    def __post_init__(self) -> None:
        self._vertex_nodes: dict[tuple, VertexInputNode] = {}
        self._edge_nodes: dict[tuple, EdgeInputNode] = {}
        self._unit_node: UnitNode | None = None
        self.router = EventRouter(self.graph)
        self._subplans: dict[tuple, _SubplanEntry] = {}
        self._key_by_node: dict[int, tuple] = {}
        # keys released since the last prune(): the only entries (besides
        # the upstreams a drop orphans) that can have died in between
        self._released: list[tuple] = []
        # binding-indexed σ nodes, keyed by generalised structure;
        # their per-binding partitions are ordinary _subplans entries under
        # BINDING_TIER-tagged keys
        self._param_nodes: dict[tuple, _ParamNodeEntry] = {}

    # -- input nodes ------------------------------------------------------------

    def vertex_node(self, op: ops.GetVertices) -> VertexInputNode:
        """The © node for *op*, keyed by its labels and pushed columns."""
        self.stats.vertex_requests += 1
        key = (op.labels, op.projections)
        node = self._vertex_nodes.get(key)
        if node is None:
            node = VertexInputNode(op, self.graph)
            self._vertex_nodes[key] = node
            self.stats.vertex_nodes += 1
            self.router.register_vertex_node(node)
        return node

    def edge_node(self, op: ops.GetEdges) -> EdgeInputNode:
        """The ⇑ node for *op*; projections are keyed by role, not name."""
        self.stats.edge_requests += 1
        key = (
            op.types,
            op.src_labels,
            op.tgt_labels,
            op.directed,
            op.projection_roles(),
        )
        node = self._edge_nodes.get(key)
        if node is None:
            node = EdgeInputNode(op, self.graph)
            self._edge_nodes[key] = node
            self.stats.edge_nodes += 1
            self.router.register_edge_node(node)
        return node

    def unit_node(self, schema) -> UnitNode:
        self.stats.unit_requests += 1
        if self._unit_node is None:
            self._unit_node = UnitNode(schema)
        return self._unit_node

    # -- subplans -----------------------------------------------------

    def subplan_lookup(self, key: tuple) -> Node | None:
        self.stats.subplan_requests += 1
        entry = self._subplans.get(key)
        if entry is None:
            return None
        self.stats.subplan_hits += 1
        return entry.node

    def subplan_adopt(
        self, key: tuple, node: Node, upstreams: tuple[tuple[Node, int], ...]
    ) -> None:
        """Take ownership of a freshly built node under *key*."""
        self._subplans[key] = _SubplanEntry(node, upstreams)
        self._key_by_node[id(node)] = key
        self.stats.subplan_nodes += 1

    def upstream_of(self, node: Node) -> Node | None:
        """The one node feeding the layer-owned unary subplan *node*
        (``None`` for an input, a private node or a binding partition)."""
        key = self._key_by_node.get(id(node))
        if key is None or key[0] is BINDING_TIER:
            return None
        upstreams = self._subplans[key].upstreams
        return upstreams[0][0] if len(upstreams) == 1 else None

    # -- binding-indexed tier (cross-binding sharing of parameterised σ) ------

    def partition_key(
        self, op: ops.Operator, parameters: Mapping[str, Any]
    ) -> tuple | None:
        """The binding-partition cache key for *op*, or ``None``.

        Eligible subtrees are parameterised selections over a
        *binding-free* core: the σ's own fingerprint mentions parameters,
        its child's mentions none (so the whole child chain shares across
        every binding already), and every mentioned parameter is bound to
        a hashable value.  Anything else — missing bindings, unhashable
        bindings, parameters below the σ — falls back to the resolved
        (exact-binding) tier unchanged.
        """
        if not isinstance(op, ops.Select):
            return None
        fp = fingerprint(op)
        if fp is None or not fp.parameters:
            return None
        child_fp = fingerprint(op.children[0])
        if child_fp is None or child_fp.parameters:
            return None
        gfp = generalized_fingerprint(op)
        try:
            bindings = tuple(
                binding_key(parameters[name]) for name in gfp.param_order
            )
            hash(bindings)
        except (KeyError, TypeError):
            return None
        return (BINDING_TIER, gfp.structure, bindings)

    def param_node(self, key: tuple) -> BindingIndexedSelectionNode | None:
        """The live binding-indexed node for a partition *key*, if any."""
        entry = self._param_nodes.get(key[1])
        if entry is None:
            return None
        self.stats.binding_core_hits += 1
        return entry.node

    def param_adopt(
        self, key: tuple, node: BindingIndexedSelectionNode, upstream: Node, side: int
    ) -> None:
        """Take ownership of a freshly built binding-indexed σ node."""
        self._param_nodes[key[1]] = _ParamNodeEntry(node, upstream, side)
        self.stats.binding_nodes += 1

    def partition_adopt(
        self, key: tuple, op: ops.Operator, parameters: Mapping[str, Any]
    ) -> SelectionPartitionNode:
        """Create the partition for *key* on its (already live) node.

        The partition's evaluation context binds the *creating* view's
        parameter names — positions in the generalised fingerprint align
        across views, so a probing view's differently-named parameters
        translate by position.
        """
        entry = self._param_nodes[key[1]]
        gfp = generalized_fingerprint(op)
        ctx = EvalContext(
            {
                creator_name: parameters[probe_name]
                for creator_name, probe_name in zip(
                    entry.node.param_order, gfp.param_order
                )
            }
        )
        facade = SelectionPartitionNode(entry.node.schema, entry.node, ctx)
        entry.node.add_partition(key[2], facade)
        self._subplans[key] = _SubplanEntry(facade, ((entry.upstream, entry.side),))
        self._key_by_node[id(facade)] = key
        self.stats.binding_partitions += 1
        return facade

    def acquire(self, key: tuple) -> None:
        self._subplans[key].refcount += 1
        self.stats.acquires += 1

    def release(self, key: tuple) -> None:
        entry = self._subplans.get(key)
        if entry is None:
            return
        self._released.append(key)
        if entry.refcount <= 0:
            # a release without a live acquire (e.g. a detach racing a
            # prune) must not drive the count negative: prune() reads
            # ``refcount == 0`` as "no view holds this", and an underflow
            # would let a *later* acquire sit at zero — a liveness bug
            # that silently drops a held subplan
            self.stats.release_underflows += 1
            logger.warning(
                "release() without matching acquire for shared subplan %r",
                key,
            )
            return
        entry.refcount -= 1
        self.stats.releases += 1

    # -- targeted activation --------------------------------------------------

    def state_delta(self, node: Node) -> ColumnDelta:
        """Current output of a layer-owned node, for targeted activation,
        as a batch that may be unconsolidated.

        Stateful nodes answer from their own memories, in row form
        transposed once (:meth:`~.nodes.base.Node.state_columns`), before
        any stateless ``transform`` sees it; stateless ones are derived by
        replaying each upstream's state through the node's pure
        ``transform`` (upstream chains bottom out at input nodes, whose
        state is the graph itself, built in columns).  A ∪ hands its arms
        on one after the other (:meth:`ColumnDelta.concat`).

        A value-indexed binding partition on the way contributes its
        ``(column, atom)`` equality pairs as a *restriction*: stateless
        nodes re-express it on their inputs and the first stateful node
        below answers only the rows that can pass (see
        :meth:`~.nodes.base.Node.state_delta`), so a new binding costs its
        own rows, not the shared core's.  The partition's ``transform``
        still runs the full predicate over whatever comes back.
        """
        out = self._replay(node, ())
        self.stats.replay_rows_emitted += len(out)
        return out

    def _replay(self, node: Node, restriction: tuple) -> ColumnDelta:
        """*node*'s state under *restriction* (see :meth:`state_delta`)."""
        examined = node.replay_scanned
        own = node.state_columns(restriction)
        if own is not None:
            self.stats.replay_rows_scanned += (
                len(own) + node.replay_scanned - examined
            )
            return own
        entry = self._subplans[self._key_by_node[id(node)]]
        answers = [
            node.transform(
                self._replay(upstream, node.upstream_restriction(restriction, side)),
                side,
            )
            for upstream, side in entry.upstreams
        ]
        return answers[0] if len(answers) == 1 else ColumnDelta.concat(answers)

    # -- maintenance ----------------------------------------------------------

    def prune(self) -> int:
        """Drop dead subplans (cascading), then dead input nodes; returns
        the number of nodes dropped (also ``stats.pruned``).

        A subplan dies when no view holds it (refcount zero) and no live
        node still subscribes to its output.  Dropping it unsubscribes it
        from its upstreams, which can push *them* to zero subscribers.
        Only a released key or an upstream orphaned by a drop can have
        died, and a drop only ever lowers other nodes' counts, so the
        sweep is a worklist over exactly those, in any order.
        """
        removed = 0
        subplans, key_by_node = self._subplans, self._key_by_node
        pending, self._released = self._released, []
        while pending:
            key = pending.pop()
            entry = subplans.get(key)
            if (
                entry is None  # dropped earlier in this sweep
                or entry.refcount != 0
                or entry.node.subscriber_count != 0
            ):
                continue
            removed += 1
            for node_id in self._drop_subplan(key):
                orphan_key = key_by_node.get(node_id)
                if orphan_key is not None:  # else an input node: swept below
                    pending.append(orphan_key)
        removed += self._prune_inputs()
        self.stats.pruned += removed
        return removed

    def _prune_inputs(self) -> int:
        """Drop input nodes nothing subscribes to any more, withdrawing
        their routing interests; returns the count."""
        removed = 0
        for cache in (self._vertex_nodes, self._edge_nodes):
            for key in [k for k, n in cache.items() if n.subscriber_count == 0]:
                self.router.unregister(cache.pop(key))
                removed += 1
        if self._unit_node is not None and self._unit_node.subscriber_count == 0:
            self._unit_node = None
            removed += 1
        return removed

    def _drop_subplan(self, key: tuple) -> set[int]:
        """Remove one cached subplan and detach it upstream.

        Returns the ids of the upstream nodes it unsubscribed from — the
        candidates the drop may have orphaned.  Binding-partition keys
        drop just their binding from the owning node; the node itself
        (and its subscription to the shared core) goes only with its last
        partition — individual bindings die before the core does.
        """
        entry = self._subplans.pop(key)
        self._key_by_node.pop(id(entry.node), None)
        if key[0] is BINDING_TIER:
            node_entry = self._param_nodes[key[1]]
            node_entry.node.remove_partition(key[2])
            if not node_entry.node.has_partitions:
                del self._param_nodes[key[1]]
                node_entry.upstream.unsubscribe(node_entry.node, node_entry.side)
                return {id(node_entry.upstream)}
            return set()
        for upstream, side in entry.upstreams:
            upstream.unsubscribe(entry.node, side)
        return {id(upstream) for upstream, _ in entry.upstreams}

    @property
    def subplan_count(self) -> int:
        return len(self._subplans)

    @property
    def binding_node_count(self) -> int:
        """Live binding-indexed σ nodes (cross-binding tier)."""
        return len(self._param_nodes)

    @property
    def binding_partition_count(self) -> int:
        """Live binding partitions across all binding-indexed σ nodes."""
        return sum(
            entry.node.partition_count for entry in self._param_nodes.values()
        )

    @property
    def node_count(self) -> int:
        return (
            len(self._vertex_nodes)
            + len(self._edge_nodes)
            + (self._unit_node is not None)
            + len(self._subplans)
            + len(self._param_nodes)
        )

    def upstream_closure(self, nodes) -> list[Node]:
        """*nodes* and every layer-owned node feeding them, each once: the
        shared state a view built on *nodes* reads."""
        seen: dict[int, Node] = {}
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen[id(node)] = node
            key = self._key_by_node.get(id(node))
            if key is None:
                continue  # an input node
            if key[0] is BINDING_TIER:
                stack.append(self._param_nodes[key[1]].node)
            stack.extend(upstream for upstream, _ in self._subplans[key].upstreams)
        return list(seen.values())

    def shared_nodes(self):
        """Every layer-owned node (public iteration for observability)."""
        yield from self._vertex_nodes.values()
        yield from self._edge_nodes.values()
        if self._unit_node is not None:
            yield self._unit_node
        for entry in self._subplans.values():
            yield entry.node
        for param_entry in self._param_nodes.values():
            yield param_entry.node

    def memory_size(self) -> int:
        """Total entries across layer-owned node memories (engine metric)."""
        return sum(node.memory_size() for node in self.shared_nodes())

    def memory_cells(self) -> int:
        """Total stored tuple fields across layer-owned node memories."""
        return sum(node.memory_cells() for node in self.shared_nodes())
