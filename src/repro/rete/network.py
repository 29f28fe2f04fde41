"""Rete network construction from an FRA plan (paper §4, step 4).

``ReteNetwork`` translates each FRA operator into its incremental node:

=================  =========================================
FRA operator       Rete node
=================  =========================================
© get-vertices     :class:`~.nodes.input.VertexInputNode`
⇑ get-edges        :class:`~.nodes.input.EdgeInputNode`
σ select           :class:`~.nodes.unary.SelectionNode`
π project          :class:`~.nodes.unary.ProjectionNode`
δ dedup            :class:`~.nodes.unary.DedupNode`
ω unwind           :class:`~.nodes.unary.UnwindNode`
γ aggregate        :class:`~.nodes.aggregate.AggregateNode`
⋈ join             :class:`~.nodes.join.JoinNode`
▷ antijoin         :class:`~.nodes.join.AntiJoinNode`
⟕ left outer join  :class:`~.nodes.join.LeftOuterJoinNode`
∪ union            :class:`~.nodes.join.UnionNode`
⋈* transitive      :class:`~.nodes.transitive.TransitiveClosureNode`
=================  =========================================

Every node comes from, or is adopted by, the engine's
:class:`~.sharing.SharingLayer`, so node sharing spans views at three
scopes:

* **inputs** — ©/⇑/unit leaves are cached by base-relation signature
  (tuple layout depends only on labels/types and pushed projections,
  never on variable names);
* **subplans** — *any* interior subtree whose canonical fingerprint
  matches a live cached node is cut over to that node, so overlapping
  views share join memories and per-event work;
* **bindings** — a parameterised σ over a binding-free core is cut over
  at its *generalised* fingerprint (parameter names and bindings
  abstracted away) to one binding-indexed node shared by every binding,
  this view subscribing below its own binding's partition.  The engine
  hands the builder such a lifted plan once a second binding of the
  query's shape registers.

The builder classifies every subscription edge it creates:

* *replay* edges (from an already-populated shared node into a node built
  here) receive the upstream's current state during :meth:`populate` —
  targeted activation, applied only to this network's edges;
* *detach* edges (from a layer-owned node into a node private to this
  network — its production, or a node the layer cannot key) are the ones
  removed again by :meth:`disconnect_shared`;
* structural edges between two layer-owned nodes belong to the sharing
  layer and live exactly as long as their downstream subplan does.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..algebra import ops
from ..algebra.expressions import (
    EvalContext,
    compile_expr,
    compile_predicate,
    compile_projection,
)
from ..algebra.fra import check_incremental_fragment, validate_fra
from ..compiler.fingerprint import generalized_fingerprint
from ..compiler.optimizer import split_conjuncts
from ..cypher import ast
from ..errors import CompilerError
from .nodes.aggregate import AggregateNode
from .nodes.base import LEFT, RIGHT, Node
from .nodes.input import BETWEEN, EdgeInputNode, VertexInputNode
from .nodes.join import AntiJoinNode, JoinNode, LeftOuterJoinNode, SideProbe, UnionNode
from .nodes.production import ProductionNode
from .nodes.transitive import EDGES, TransitiveClosureNode
from .nodes.unary import (
    BindingIndexedSelectionNode,
    DedupNode,
    ProjectionNode,
    SelectionNode,
    UnwindNode,
)
from .sharing import SharingLayer, subplan_cache_key


class ReteNetwork:
    """A built network: input nodes, production node, and statistics."""

    def __init__(
        self,
        plan: ops.Operator,
        layer: SharingLayer,
        parameters: Mapping[str, Any] | None = None,
        binding_tier: bool = False,
    ):
        validate_fra(plan)
        check_incremental_fragment(plan)
        self.plan = plan
        self.ctx = EvalContext(dict(parameters or {}))
        self.layer = layer
        #: cut parameterised σ over to binding-indexed nodes: set for a
        #: lifted plan, whose σ sit above binding-free cores
        self.binding_tier = binding_tier
        self.aggregates: list[AggregateNode] = []
        self.all_nodes: list[Node] = []
        # layer-owned nodes this network reads (inputs and shared subplans),
        # in first-use order; fresh-this-build shared nodes are additionally
        # tracked so replay never double-feeds a node that is populated by
        # propagation from its own upstreams
        self._shared_nodes: dict[int, Node] = {}
        self._fresh_shared: set[int] = set()
        self._acquired_keys: list[tuple] = []
        self._replay_edges: list[tuple[Node, Node, int]] = []
        self._detach_edges: list[tuple[Node, Node, int]] = []
        # edges into ⋈ probe sides: subscribed once populate is done
        self._probe_edges: list[tuple[Node, Node, int]] = []

        self._root = self._build(plan)
        self.production = ProductionNode(plan.schema)
        self.all_nodes.append(self.production)
        self._connect(self._root, self.production, LEFT)
        # The frontier between the sharing layer and this network, frozen:
        # exactly the edges disconnect_shared() must remove on detach.
        self.shared_edges: tuple[tuple[Node, Node, int], ...] = tuple(
            self._detach_edges
        )

    # -- construction -----------------------------------------------------

    def _use_shared(self, node: Node) -> Node:
        self._shared_nodes.setdefault(id(node), node)
        return node

    def _connect(self, upstream: Node, node: Node, side: int) -> None:
        """Subscribe and classify one dataflow edge (see module docstring).

        An edge into a ⋈ probe side is never replayed — that side's state
        is the graph — and is subscribed only after :meth:`populate`, so
        no populate delta reaches it either."""
        probed = isinstance(node, JoinNode) and node.probe_side == side
        if probed:
            self._probe_edges.append((upstream, node, side))
        else:
            upstream.subscribe(node, side)
        if id(upstream) not in self._shared_nodes:
            return  # private upstream: lives and dies with this network
        if id(node) not in self._shared_nodes:
            self._detach_edges.append((upstream, node, side))
        if not probed and id(upstream) not in self._fresh_shared:
            # input nodes are never in _fresh_shared: their "state" is the
            # graph itself, so even a node the layer just created replays
            self._replay_edges.append((upstream, node, side))

    def _build(self, op: ops.Operator) -> Node:
        layer = self.layer
        if isinstance(op, ops.Unit):
            return self._use_shared(layer.unit_node(op.schema))
        if isinstance(op, ops.GetVertices):
            return self._use_shared(layer.vertex_node(op))
        if isinstance(op, ops.GetEdges):
            return self._use_shared(layer.edge_node(op))

        if self.binding_tier:
            partition = self._build_binding_partition(op)
            if partition is not None:
                return partition
        key = subplan_cache_key(op, self.ctx.parameters)
        if key is not None:
            cached = layer.subplan_lookup(key)
            if cached is not None:
                layer.acquire(key)
                self._acquired_keys.append(key)
                return self._use_shared(cached)
        node, edges = self._make_node(op)
        if key is not None:
            layer.subplan_adopt(key, node, tuple(edges))
            layer.acquire(key)
            self._acquired_keys.append(key)
            self._use_shared(node)
            self._fresh_shared.add(id(node))
        else:
            self.all_nodes.append(node)  # unkeyable: private to this view
        for upstream, side in edges:
            self._connect(upstream, node, side)
        return node

    def _build_binding_partition(self, op: ops.Operator) -> Node | None:
        """Cut a parameterised σ over to the binding-indexed tier.

        Returns the partition facade this view subscribes below, or
        ``None`` when *op* is not an eligible parameterised selection (the
        resolved exact-binding tier then proceeds as before).  Three
        cases:

        * the partition for this binding already exists — an ordinary
          shared hit; the generic replay machinery feeds its current state
          to this view's nodes;
        * the node exists but this binding is new — the partition is
          created on the live node; it is *not* marked fresh, so populate
          replays the shared core's state — restricted to the rows this
          binding's equality conjuncts admit — through the partition's
          ``transform`` onto exactly this network's edges;
        * nothing exists — the binding-free core is built (sharing as
          usual), topped with a fresh binding-indexed node carrying the
          first partition; both are fresh, so population flows through
          the core's replay/activation.
        """
        layer = self.layer
        pkey = layer.partition_key(op, self.ctx.parameters)
        if pkey is None:
            return None
        facade = layer.subplan_lookup(pkey)
        if facade is not None:
            layer.acquire(pkey)
            self._acquired_keys.append(pkey)
            return self._use_shared(facade)
        node = layer.param_node(pkey)
        fresh_node = node is None
        if fresh_node:
            # first binding of this σ shape anywhere: build the binding-free
            # core (sharing as usual) and top it with the indexed node
            child_node = self._build(op.children[0])
            node = BindingIndexedSelectionNode(
                op.schema,
                compile_predicate(op.predicate, op.children[0].schema),
                generalized_fingerprint(op).param_order,
                discriminants=self._equality_discriminants(op),
            )
            layer.param_adopt(pkey, node, child_node, LEFT)
            self._use_shared(node)
            self._fresh_shared.add(id(node))
            self._connect(child_node, node, LEFT)
        # an existing node already owns its core (alpha-equivalent to this
        # plan's child, possibly under different variable names), and its
        # subscription keeps that whole chain alive — nothing to rebuild
        facade = layer.partition_adopt(pkey, op, self.ctx.parameters)
        layer.acquire(pkey)
        self._acquired_keys.append(pkey)
        self._use_shared(facade)
        if fresh_node:
            self._fresh_shared.add(id(facade))
        return facade

    def _equality_discriminants(self, op: ops.Operator):
        """``(param position, compiled expr, column)`` index components.

        Looks for top-level ``expr = $param`` conjuncts whose non-param
        side mentions no parameter: the binding-indexed node then routes
        each row by evaluating those sides once (a single *composite*
        probe for ``a.x = $p AND a.y = $q``) instead of evaluating the
        predicate once per live binding.  The third component is the
        child-schema column index when the expr is a bare column variable
        (``None`` otherwise) — the node extracts such composite keys with
        one transpose.
        """
        param_order = generalized_fingerprint(op).param_order
        child_schema = op.children[0].schema
        found: list[tuple[int, Any, int | None]] = []
        for conjunct in split_conjuncts(op.predicate):
            if not (
                isinstance(conjunct, ast.Comparison) and conjunct.ops == ("=",)
            ):
                continue
            for param_side, value_side in (
                conjunct.operands,
                conjunct.operands[::-1],
            ):
                if (
                    isinstance(param_side, ast.Parameter)
                    and param_side.name in param_order
                    and not any(
                        isinstance(node, ast.Parameter)
                        for node in ast.walk(value_side)
                    )
                ):
                    column = (
                        child_schema.index_of(value_side.name)
                        if isinstance(value_side, ast.Variable)
                        and value_side.name in child_schema.names
                        else None
                    )
                    found.append(
                        (
                            param_order.index(param_side.name),
                            compile_expr(value_side, child_schema),
                            column,
                        )
                    )
                    break
        return tuple(found) if found else None

    def _make_node(
        self, op: ops.Operator
    ) -> tuple[Node, list[tuple[Node, int]]]:
        """Build the node for *op* plus its (not yet subscribed) upstreams."""
        if isinstance(op, ops.Select):
            child = self._build(op.children[0])
            node = SelectionNode(
                op.schema,
                compile_predicate(op.predicate, op.children[0].schema),
                self.ctx,
            )
            return node, [(child, LEFT)]

        if isinstance(op, ops.Project):
            child = self._build(op.children[0])
            child_schema = op.children[0].schema
            items = compile_projection(
                [expr for _, expr in op.items], child_schema
            )
            source_cols = tuple(
                child_schema.index_of(expr.name)
                if isinstance(expr, ast.Variable)
                and expr.name in child_schema.names
                else None
                for _, expr in op.items
            )
            node = ProjectionNode(op.schema, items, self.ctx, source_cols)
            return node, [(child, LEFT)]

        if isinstance(op, ops.Dedup):
            child = self._build(op.children[0])
            return DedupNode(op.schema), [(child, LEFT)]

        if isinstance(op, ops.Unwind):
            child = self._build(op.children[0])
            node = UnwindNode(
                op.schema,
                compile_projection([op.expression], op.children[0].schema),
                self.ctx,
            )
            return node, [(child, LEFT)]

        if isinstance(op, ops.Aggregate):
            child = self._build(op.children[0])
            child_schema = op.children[0].schema
            node = AggregateNode(
                op.schema,
                [compile_expr(e, child_schema) for _, e in op.keys],
                list(op.aggregates),
                [
                    compile_expr(a.argument, child_schema)
                    if a.argument is not None
                    else None
                    for a in op.aggregates
                ],
                self.ctx,
            )
            self.aggregates.append(node)
            return node, [(child, LEFT)]

        if isinstance(op, ops.Join):
            left, right = op.children
            left_node = self._build(left)
            right_node = self._build(right)
            left_key = [left.schema.index_of(n) for n in op.common]
            right_key = [right.schema.index_of(n) for n in op.common]
            node = JoinNode(
                op.schema,
                left_key,
                right_key,
                [
                    i
                    for i, a in enumerate(right.schema)
                    if a.name not in op.common
                ],
                self._side_probe(right_node, right_key, RIGHT)
                or self._side_probe(left_node, left_key, LEFT),
                self.layer.propagation,
            )
            return node, [(left_node, LEFT), (right_node, RIGHT)]

        if isinstance(op, ops.AntiJoin):
            left, right = op.children
            left_node = self._build(left)
            right_node = self._build(right)
            node = AntiJoinNode(
                op.schema,
                [left.schema.index_of(n) for n in op.common],
                [right.schema.index_of(n) for n in op.common],
            )
            return node, [(left_node, LEFT), (right_node, RIGHT)]

        if isinstance(op, ops.LeftOuterJoin):
            left, right = op.children
            left_node = self._build(left)
            right_node = self._build(right)
            extra = [
                i for i, a in enumerate(right.schema) if a.name not in op.common
            ]
            node = LeftOuterJoinNode(
                op.schema,
                [left.schema.index_of(n) for n in op.common],
                [right.schema.index_of(n) for n in op.common],
                extra,
            )
            node.configure_nulls(len(extra))
            return node, [(left_node, LEFT), (right_node, RIGHT)]

        if isinstance(op, ops.Union):
            left_node = self._build(op.children[0])
            right_node = self._build(op.children[1])
            node = UnionNode(op.schema, op.right_permutation)
            return node, [(left_node, LEFT), (right_node, RIGHT)]

        if isinstance(op, ops.TransitiveJoin):
            left = op.children[0]
            left_node = self._build(left)
            edges_node = self._build(op.edges)
            node = TransitiveClosureNode(
                op.schema,
                left.schema.index_of(op.source),
                op.direction,
                op.min_hops,
                op.max_hops,
                emit_path=op.path_alias is not None,
            )
            return node, [(left_node, LEFT), (edges_node, EDGES)]

        raise CompilerError(f"cannot build a Rete node for {type(op).__name__}")

    def _side_probe(self, node: Node, key: list[int], side: int) -> SideProbe | None:
        """The probe that reads the ⋈ *side* fed by *node* from the graph,
        when *node* is a ⇑/© input under σ and bare-column π only and the
        side's *key* holds one of that input's id columns; else ``None``."""
        chain: list[Node] = []
        origin = list(range(len(node.schema)))
        while not isinstance(node, (VertexInputNode, EdgeInputNode)):
            if type(node) is ProjectionNode and None not in node.source_cols:
                origin = [node.source_cols[column] for column in origin]
            elif type(node) is not SelectionNode:
                return None
            chain.append(node)
            node = self.layer.upstream_of(node)
            if node is None:
                return None
        if not any(type(link) is SelectionNode for link in chain):
            chain = []  # a π-only side is its origin columns
        found = {origin[held]: position for position, held in enumerate(key)}
        if BETWEEN[0] in found and BETWEEN[1] in found and 1 not in found:
            positions = tuple(found[column] for column in BETWEEN)
            return SideProbe(side, node, BETWEEN, positions, chain[::-1], origin)
        for column in node.id_columns:
            if column in found:
                return SideProbe(side, node, column, found[column], chain[::-1], origin)
        return None

    # -- lifecycle ------------------------------------------------------------

    def populate(self) -> int:
        """Emit initial state through the network; returns the number of
        rows handed out by replays.

        Order matters: aggregates built here first publish their
        empty-state rows, then every replay edge feeds its subscriber.

        Shared nodes use *targeted activation*: each replay edge applies
        the upstream's current-state batch only to the subscriber built by
        this network, never re-emitting to other views (see
        :meth:`~.sharing.SharingLayer.state_delta`), so populate runs the
        same column kernels a commit does.  Construction and
        population happen back-to-back inside ``register``, so no graph
        event can slip in between.
        """
        for aggregate in self.aggregates:
            aggregate.initialize()
        rows = 0
        answers: dict[int, Any] = {}
        for node, subscriber, side in self._replay_edges:
            if _feeds_nothing(subscriber):
                continue  # it feeds only probe sides, not subscribed yet
            delta = answers.get(id(node))
            if delta is None:
                delta = answers[id(node)] = self.layer.state_delta(node)
            if delta:
                rows += len(delta)
                subscriber.apply(delta, side)
        for upstream, node, side in self._probe_edges:
            upstream.subscribe(node, side)
        self._probe_edges = []
        return rows

    def disconnect_shared(self) -> None:
        """Detach this network from the sharing layer.

        Removes this network's frontier subscriptions and releases its
        subplan refcounts; the engine then prunes the layer, which cascades
        the release down any shared chains nobody else reads; this
        network's private nodes die with it.
        """
        for node, subscriber, side in self.shared_edges:
            node.unsubscribe(subscriber, side)
        self.shared_edges = ()
        for key in self._acquired_keys:
            self.layer.release(key)
        self._acquired_keys = []

    def adopt_production(self, production: ProductionNode) -> None:
        """Feed *production* in place of this network's own production node.

        For a view moving onto an equivalent plan: this network is built
        and populated, so its output equals *production*'s contents, and
        the node carries over — bag, callbacks, listings — without a delta.
        """
        own = self.production
        self._root.unsubscribe(own, LEFT)
        self._root.subscribe(production, LEFT)
        self.shared_edges = tuple(
            (node, production if subscriber is own else subscriber, side)
            for node, subscriber, side in self.shared_edges
        )
        self.all_nodes[self.all_nodes.index(own)] = production
        self.production = production

    def profile(self) -> str:
        """PROFILE rendering: per-node traffic and memory counters.

        One line per node in construction (bottom-up) order; shared nodes
        (inputs and subplans) are marked, and their counters cover traffic
        for *all* views they feed.  A ⋈ with a probe side is followed by a
        line for that side: 0 cells, and the probes it made.
        """
        header = (
            f"{'node':<28} {'schema':<34} {'deltas':>8} {'rows':>10} "
            f"{'rows/call':>10} {'memory':>8} {'cells':>8}"
        )
        lines = [header, "-" * len(header)]
        for node in self._shared_nodes.values():
            lines.append(self._profile_line(node, shared=True))
            lines.extend(probe_note(node, "  └ "))
        for node in self.all_nodes:
            lines.append(self._profile_line(node, shared=False))
            lines.extend(probe_note(node, "  └ "))
        return "\n".join(lines)

    def nodes(self):
        """Every node this view reads: shared first, then private."""
        yield from self._shared_nodes.values()
        yield from self.all_nodes

    def _profile_line(self, node: Node, shared: bool) -> str:
        name = type(node).__name__.removesuffix("Node")
        if shared:
            name += " (shared)"
        columns = ", ".join(node.schema.names)
        if len(columns) > 32:
            columns = columns[:29] + "..."
        # input-side batching: rows consumed per apply() call (input nodes
        # have no upstream and show "-")
        rows_per_call = (
            f"{node.applied_rows / node.applied_deltas:>10.1f}"
            if node.applied_deltas
            else f"{'-':>10}"
        )
        return (
            f"{name:<28} {columns:<34} {node.emitted_deltas:>8} "
            f"{node.emitted_rows:>10} {rows_per_call} "
            f"{node.memory_size():>8} {node.memory_cells():>8}"
        )

    def memory_size(self) -> int:
        """Entries across all memories this view reads.

        Shared nodes count fully here, down to the inputs below the ones
        this network subscribes to — this is the memory the view would
        need privately; engine-level totals deduplicate shared nodes.
        """
        return self.private_memory_size() + sum(
            node.memory_size()
            for node in self.layer.upstream_closure(self._shared_nodes.values())
        )

    def memory_cells(self) -> int:
        """Total stored tuple fields this view reads (width-sensitive)."""
        return self.private_memory_cells() + sum(
            node.memory_cells()
            for node in self.layer.upstream_closure(self._shared_nodes.values())
        )

    def private_memory_size(self) -> int:
        """Entries in memories owned by this network alone."""
        return sum(node.memory_size() for node in self.all_nodes)

    def private_memory_cells(self) -> int:
        """Stored tuple fields in memories owned by this network alone."""
        return sum(node.memory_cells() for node in self.all_nodes)


def _feeds_nothing(node: Node) -> bool:
    """Whether *node* is a σ/π whose output reaches no node yet — while a
    network populates, one read only by ⋈ probe sides."""
    return type(node) in (SelectionNode, ProjectionNode) and all(
        _feeds_nothing(subscriber) for subscriber, _ in node._subscribers
    )


def probe_note(node: Node, prefix: str = "") -> list[str]:
    """One line on *node*'s probe side, if it is a ⋈ with one."""
    if not isinstance(node, JoinNode) or node.probe is None:
        return []
    side = "right" if node.probe_side == RIGHT else "left"
    return [
        f"{prefix}{side} side probes the graph: 0 cells, "
        f"{node.probe_reads} probes, {node.probe_rows} rows read"
    ]
