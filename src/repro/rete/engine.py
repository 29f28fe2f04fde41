"""The incremental query engine: registered views over a live graph.

:class:`IncrementalEngine` owns one graph subscription and any number of
registered views.  By default every elementary graph change propagates
synchronously through each view's Rete network, so ``View.rows()`` is
always consistent with the current graph — the paper's IVM property.

Reads
-----
``View.rows()`` is maintained too: the first call sorts the view's bag
into canonical order once, and each later call splices in only the rows
whose count changed since the previous one (see
:meth:`~repro.rete.nodes.production.ProductionNode.sorted_rows`), so a
read costs the changes since the last read, not a full sort.  The same
production node keeps *derived* listings — the bag filtered, deduplicated
or ordered by bare columns — for the filtered and top-k reads
``QueryEngine.evaluate`` serves over a view root
(:meth:`~repro.rete.nodes.production.ProductionNode.listing`); every
listing splices its own changes from one change log.

Batched propagation
-------------------
``engine.batch()`` opens a re-entrant scope that buffers elementary events
instead.  On scope exit they are coalesced (:mod:`repro.rete.batch`) into
at most one net record per entity — insert/delete pairs cancel before any
tuple is built — grouped by vertex label, edge type, flipped label and
moved property key.  The router offers the batch to the input nodes its
group keys concern, and each builds one net
:class:`~repro.rete.deltas.ColumnDelta` from the groups it reads, column
by column (the after half from the live graph, the before half from the
batch's window-start images).  That delta makes a single trip through
every network, and each view's ``on_change`` callback fires **exactly
once per batch** with the net output delta (or not at all when the batch
nets to nothing).  Inside an
open batch ``View.rows()`` is intentionally stale; it catches up at flush.

With ``batch_transactions=True`` the engine additionally listens to
:meth:`PropertyGraph.transaction` phases: every transaction scope becomes a
batch that flushes at commit, and a rollback — whose compensation events
land in the same window — nets to zero, leaving views untouched and
callbacks silent.  The per-event path stays the default: each mutation
propagates as it lands, and ``on_change`` fires once per delta that
reaches the production node — usually once per event, but a view whose
join reads the same input on both sides (``(x)-[:K]->(y), (y)-[:K]->(x)``)
fires once per side an ``add_edge`` arrives on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Mapping

from ..algebra.expressions import cache_stats
from ..compiler.optimizer import lifted_plan
from ..compiler.pipeline import CompiledQuery, compile_query
from ..errors import InvalidValueError, TransactionError
from ..eval.results import ResultTable
from ..graph import events as ev
from ..graph.graph import PropertyGraph
from ..obs import tracing
from ..obs.metrics import EngineMetrics
from .batch import BatchAccumulator
from .deltas import Delta
from .network import ReteNetwork
from .sharing import SharingLayer


class View:
    """A continuously maintained query result."""

    def __init__(
        self,
        engine: "IncrementalEngine",
        compiled: CompiledQuery,
        network: ReteNetwork,
        shape: tuple | None = None,
    ):
        self._engine = engine
        self.compiled = compiled
        self.network = network
        #: ``(shape, binding)`` of a parameterised query (see
        #: ``IncrementalEngine._registered_plan``), else ``None``
        self._shape = shape
        #: the result bag every read is served from
        self._production = network.production

    @property
    def columns(self) -> tuple[str, ...]:
        return self.compiled.columns

    def multiset(self) -> dict[tuple, int]:
        """Current contents as a bag (row → multiplicity)."""
        return self._production.multiset()

    def rows(self) -> list[tuple]:
        """Current contents, expanded and canonically ordered: a copy of the
        production node's canonical listing, brought up to date first."""
        return self._production.sorted_rows()

    def result_table(self) -> ResultTable:
        return ResultTable(
            self.compiled.plan.schema,
            self.rows(),
            canonical=True,
            graph=self._engine.graph,
        )

    def on_change(self, callback: Callable[[Delta], None]) -> None:
        """Invoke *callback* with the net output delta of each change."""
        self._production.on_change(callback)

    def detach(self) -> None:
        """Stop maintaining this view."""
        self._engine._detach(self)

    def memory_size(self) -> int:
        return self.network.memory_size()

    def memory_cells(self) -> int:
        return self.network.memory_cells()

    def profile(self) -> str:
        """Per-node delta/row/memory counters for this view's network."""
        return self.network.profile()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        rows = sum(self._production.results.values())
        return f"View({self.compiled.text!r}, rows={rows})"


class IncrementalEngine:
    """Registers incremental views and feeds them graph events.

    Every view's network is built through one engine-owned
    :class:`~repro.rete.sharing.SharingLayer`: views share input nodes
    (each graph event is translated once per distinct ©/⇑ signature, and
    the layer's router offers it only to the nodes it can concern) and
    whole interior subtrees — selections, joins, aggregates, their
    memories *and* their per-event work — keyed by the canonical subplan
    fingerprint.

    Sharing crosses *parameter bindings* once there is a second one: while
    a parameterised query's shape has a single live binding, its views
    keep the pushed-down plan; when a different binding of the shape
    registers, the shape's views move onto their lifted plans —
    parameter-dependent selections above a binding-free core — which
    every binding then shares below one value-indexed σ node with a
    partition per binding.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        batch_transactions: bool = False,
        collect_metrics: bool = False,
        trace_batches: bool = False,
    ):
        self.graph = graph
        self.input_layer = SharingLayer(graph)
        self._router = self.input_layer.router
        self._views: list[View] = []
        # live bindings per parameterised query shape (see
        # _registered_plan): shape → {binding: live views}
        self._live_bindings: dict[tuple, dict[tuple, int]] = {}
        # shapes whose views are built lifted, until their last view leaves
        self._lifted_shapes: set[tuple] = set()
        # view-lifecycle observers (the view-answering catalog), called with
        # ("register" | "lift" | "detach", view) once the engine state is
        # consistent
        self._view_listeners: list[Callable[[str, View], None]] = []
        self._subscribed = False
        self.batch_transactions = batch_transactions
        #: metrics bundle, or ``None`` — every instrumentation site guards
        #: on this, so ``collect_metrics=False`` runs the uninstrumented
        #: maintenance path (pinned by the differential oracle in
        #: ``tests/obs``)
        self.collect_metrics = collect_metrics
        self.metrics: EngineMetrics | None = None
        if collect_metrics:
            self.metrics = EngineMetrics()
            self.metrics.registry.add_collector(self._collect_gauges)
        #: record each propagation as a span tree; the latest finished
        #: tree is retained as :attr:`last_trace`
        self.trace_batches = trace_batches
        self.last_trace: tracing.Span | None = None
        self._accumulator: BatchAccumulator | None = None
        self._batch_depth = 0
        self._dispatch_depth = 0
        if batch_transactions:
            graph.subscribe_transactions(self._on_transaction)

    def register(
        self,
        query: str | CompiledQuery,
        parameters: Mapping[str, Any] | None = None,
    ) -> View:
        """Compile (if needed) and register *query* as an incremental view.

        Raises :class:`~repro.errors.UnsupportedForIncrementalError` for
        queries outside the paper's maintainable fragment (ORDER BY / SKIP /
        LIMIT / top-k).  A parameterised query is built lifted, sharing a
        binding-free core with the other bindings of its shape, once
        another binding of that shape is live (see :meth:`_registered_plan`).
        """
        compiled = compile_query(query) if isinstance(query, str) else query
        compiled.require_incremental()
        # A view joining mid-batch must not replay buffered changes that its
        # initial population (which reads the live graph) already contains:
        # flush the pending window to the existing views first.
        accumulator = self._accumulator
        if accumulator is not None and accumulator:
            self._accumulator = BatchAccumulator(self.graph)
            self._run_batch(accumulator)
        metrics = self.metrics
        start = perf_counter() if metrics is not None else 0.0
        plan, shape, rows = self._registered_plan(compiled, parameters)
        network = ReteNetwork(
            plan,
            self.input_layer,
            parameters=parameters,
            binding_tier=plan is not compiled.plan,
        )
        built = perf_counter() if metrics is not None else 0.0
        rows += network.populate()
        if metrics is not None:
            metrics.register_build_seconds.observe(built - start)
            metrics.register_populate_seconds.observe(perf_counter() - built)
            metrics.populate_rows.inc(rows)
        view = View(self, compiled, network, shape)
        if shape is not None:
            live = self._live_bindings.setdefault(shape[0], {})
            live[shape[1]] = live.get(shape[1], 0) + 1
        self._views.append(view)
        if not self._subscribed:
            self.graph.subscribe(self._on_event)
            self._subscribed = True
        for listener in self._view_listeners:
            listener("register", view)
        return view

    def _registered_plan(
        self, compiled: CompiledQuery, parameters: Mapping[str, Any] | None
    ) -> tuple[Any, tuple | None, int]:
        """The plan to build for one registration, its binding shape, and
        the rows replayed to lift the shape's live views.

        A lifted plan (:func:`~repro.compiler.optimizer.lifted_plan`)
        hoists parameter-dependent selections above a binding-free core;
        the σ the layer can share across bindings there (see
        :meth:`~.sharing.SharingLayer.partition_key`) make up its *shape*
        (their generalised structures) and its *binding* (their type-exact
        binding keys).  Keying on the σ, not on the whole plan, lets two
        queries that differ only above it — another RETURN, an aggregate —
        count each other's bindings, as they share its binding-indexed
        node.

        A shape with one live binding keeps the pushed-down plan: lifted,
        a lone binding would only build an unfiltered core nobody else
        reads.  The first registration of a second distinct binding lifts
        the shape: it moves the shape's live views onto their lifted plans
        (:meth:`_lift`), whose nodes then hold the core once for every
        binding, and every later view of the shape is built lifted until
        the shape's last view leaves.  Returns ``(plan, None, 0)`` for a
        plan that cannot lift or whose bindings have no type-exact key.
        """
        shape = self._binding_shape(compiled, parameters)
        if shape is None:
            return compiled.plan, None, 0
        structure, binding = shape
        rows = 0
        if structure not in self._lifted_shapes:
            live = self._live_bindings.get(structure)
            if not live or binding in live:
                return compiled.plan, shape, 0
            for view in self._views:
                if view._shape is not None and view._shape[0] == structure:
                    rows += self._lift(view)
            self._lifted_shapes.add(structure)
        return lifted_plan(compiled), shape, rows

    def _binding_shape(
        self, compiled: CompiledQuery, parameters: Mapping[str, Any] | None
    ) -> tuple | None:
        """``(shape, binding)`` of *compiled* under *parameters*, or ``None``."""
        lifted = lifted_plan(compiled)
        if lifted is compiled.plan:
            return None
        try:
            keys = [
                key
                for op in lifted.walk()
                if (key := self.input_layer.partition_key(op, parameters or {}))
                is not None
            ]
        except InvalidValueError:
            return None
        if not keys:
            return None
        return tuple(key[1] for key in keys), tuple(key[2] for key in keys)

    def _lift(self, view: View) -> int:
        """Rebuild *view* from its lifted plan; returns the rows replayed.

        The old network leaves first, and the nodes only it read are
        dropped: the shape stays lifted while it has views, so no
        registration asks for them again, and a lifted plan that matches
        the pushed-down one subtree for subtree (a σ straight over an
        input) must not cut over to them.  The lifted plan computes the
        same bag, so the new network takes over the view's production node
        (its contents, callbacks and listings) without a delta: no
        ``on_change`` fires.
        """
        old = view.network
        old.disconnect_shared()
        self.input_layer.prune()
        network = ReteNetwork(
            lifted_plan(view.compiled),
            self.input_layer,
            parameters=old.ctx.parameters,
            binding_tier=True,
        )
        rows = network.populate()
        network.adopt_production(old.production)
        view.network = network
        for listener in self._view_listeners:
            listener("lift", view)
        return rows

    def subscribe_views(self, listener: Callable[[str, "View"], None]) -> None:
        """Observe view lifecycle: called with ``("register", view)``,
        ``("detach", view)``, or ``("lift", view)`` when a view's network
        was rebuilt from its lifted plan (same contents, other nodes)."""
        self._view_listeners.append(listener)

    def _on_event(self, event: ev.GraphEvent) -> None:
        if self._accumulator is not None:
            self._accumulator.record(event)
            return
        metrics = self.metrics
        tracer = None
        if self.trace_batches and tracing.ACTIVE is None:
            # one tracer per outermost dispatch; events raised by callbacks
            # mid-propagation nest into the active tree via Node.emit
            tracer = tracing.BatchTracer("event", type(event).__name__)
            tracing.ACTIVE = tracer
        start = perf_counter() if metrics is not None else 0.0
        # Mid-propagation, some networks have seen the delta and some have
        # not; on_change callbacks run inside this window and must not be
        # served half-updated maintained state (see pending_changes).
        self._dispatch_depth += 1
        try:
            self._router.dispatch(event)
        finally:
            self._dispatch_depth -= 1
            if metrics is not None:
                metrics.events.inc()
                metrics.event_seconds.observe(perf_counter() - start)
            if tracer is not None:
                tracing.ACTIVE = None
                self.last_trace = tracer.finish()

    # -- batched propagation --------------------------------------------------

    def batch(self) -> "BatchScope":
        """A re-entrant scope that defers propagation until exit.

        All elementary events raised inside the scope are coalesced and
        propagated as one net delta per input signature when the outermost
        scope exits (even on exception — the mutations are already in the
        graph, so the views must catch up).
        """
        return BatchScope(self)

    def _begin_batch(self) -> None:
        self._batch_depth += 1
        if self._batch_depth == 1:
            self._accumulator = BatchAccumulator(self.graph)

    def _end_batch(self) -> None:
        if self._batch_depth == 0:
            raise TransactionError("no batch is open")
        self._batch_depth -= 1
        if self._batch_depth == 0:
            accumulator, self._accumulator = self._accumulator, None
            if accumulator is not None and accumulator:
                self._run_batch(accumulator)

    def _run_batch(self, accumulator: BatchAccumulator) -> None:
        """Coalesce and propagate one window, instrumented when asked.

        With metrics and tracing both off this is exactly
        ``_propagate_batch(accumulator.consolidate())``.
        """
        metrics = self.metrics
        if metrics is None and not self.trace_batches:
            self._propagate_batch(accumulator.consolidate())
            return
        raw_events = len(accumulator)
        tracer = None
        if self.trace_batches and tracing.ACTIVE is None:
            tracer = tracing.BatchTracer("batch", f"raw_events={raw_events}")
            tracing.ACTIVE = tracer
        batch_start = perf_counter()
        try:
            if tracer is not None:
                tracer.enter("coalesce", f"raw_events={raw_events}", raw_events)
            start = perf_counter()
            changes = accumulator.consolidate()
            coalesce_seconds = perf_counter() - start
            if tracer is not None:
                tracer.exit()
            try:
                self._propagate_batch(changes, tracer)
            finally:
                if metrics is not None:
                    metrics.batches.inc()
                    metrics.batch_raw_events.inc(raw_events)
                    metrics.batch_net_records.inc(changes.net_records)
                    metrics.coalesce_seconds.observe(coalesce_seconds)
                    metrics.batch_seconds.observe(perf_counter() - batch_start)
        finally:
            if tracer is not None:
                tracing.ACTIVE = None
                self.last_trace = tracer.finish()

    def _propagate_batch(self, changes, tracer=None) -> None:
        net_records = changes.net_records
        if not net_records:
            return
        metrics = self.metrics
        productions = [view.network.production for view in self._views]
        for production in productions:
            production.begin_batch()
        if tracer is not None:
            tracer.enter("dispatch", f"net_records={net_records}", net_records)
        start = perf_counter() if metrics is not None else 0.0
        try:
            self._router.dispatch_batch(changes)
        finally:
            if metrics is not None:
                metrics.dispatch_seconds.observe(perf_counter() - start)
            if tracer is not None:
                tracer.exit()
                tracer.enter("merge", f"productions={len(productions)}")
            start = perf_counter() if metrics is not None else 0.0
            # callbacks fire here, outside the dispatch loops; writes they
            # issue land in the fresh accumulator (or per-event when none).
            # One raising callback must not strand the other productions in
            # batch mode, so every end_batch runs before the first error
            # resurfaces.
            error: BaseException | None = None
            for production in productions:
                try:
                    production.end_batch()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if error is None:
                        error = exc
            if metrics is not None:
                metrics.merge_seconds.observe(perf_counter() - start)
            if tracer is not None:
                tracer.exit()
            if error is not None:
                raise error

    def _on_transaction(self, phase: str) -> None:
        if phase == "begin":
            self._begin_batch()
        elif self._batch_depth > 0:
            # commit or rollback (compensation already applied)
            self._end_batch()
        # else: the transaction predates this engine's subscription (it was
        # constructed mid-transaction) — there is no matching batch to close

    def _detach(self, view: View) -> None:
        if view not in self._views:
            return  # already detached
        self._views.remove(view)
        if view._shape is not None:
            structure, binding = view._shape
            live = self._live_bindings[structure]
            live[binding] -= 1
            if not live[binding]:
                del live[binding]
                if not live:
                    del self._live_bindings[structure]
                    self._lifted_shapes.discard(structure)
        view.network.disconnect_shared()
        view.network.production.dispose()
        self.input_layer.prune()
        for listener in self._view_listeners:
            listener("detach", view)

    def pending_changes(self) -> bool:
        """Whether view contents may lag the graph right now.

        True inside any open batch/transaction window — buffered events
        have mutated the graph but not yet reached the networks — and
        while an event is mid-propagation (an ``on_change`` callback
        evaluating a query must not read sibling views that have not seen
        the delta yet); maintained state must not serve snapshot reads
        until both have settled.
        """
        return (
            self._batch_depth > 0
            or self._dispatch_depth > 0
            or (self._accumulator is not None and bool(self._accumulator))
        )

    @property
    def views(self) -> tuple[View, ...]:
        return tuple(self._views)

    # -- engine-wide metrics ---------------------------------------------------

    def memory_size(self) -> int:
        """Total memory entries across all views, shared nodes counted once."""
        return self.input_layer.memory_size() + sum(
            view.network.private_memory_size() for view in self._views
        )

    def memory_cells(self) -> int:
        """Total stored tuple fields, shared nodes counted once."""
        return self.input_layer.memory_cells() + sum(
            view.network.private_memory_cells() for view in self._views
        )

    # -- observability ---------------------------------------------------------

    def _live_nodes(self) -> list:
        """Every live node, shared counted once (layer first, then private)."""
        seen: set[int] = set()
        nodes = []
        for node in self.input_layer.shared_nodes():
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
        for view in self._views:
            for node in view.network.all_nodes:
                if id(node) not in seen:
                    seen.add(id(node))
                    nodes.append(node)
        return nodes

    def _collect_gauges(self) -> None:
        """Snapshot-time collector: sample always-on counters into gauges.

        Registered only under ``collect_metrics=True`` and run by
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, never on the
        maintenance hot path — the node/router/sharing counters it reads
        are the cheap integers those subsystems maintain regardless.
        """
        gauge = self.metrics.registry.gauge
        nodes = self._live_nodes()
        gauge("repro_views_live", "Registered incremental views").set(
            len(self._views)
        )
        gauge("repro_nodes_live", "Live Rete nodes, shared counted once").set(
            len(nodes)
        )
        for attribute, name, help in (
            ("emitted_deltas", "repro_node_emitted_deltas", "Deltas emitted across live nodes"),
            ("emitted_rows", "repro_node_emitted_rows", "Rows emitted across live nodes"),
            ("applied_deltas", "repro_node_applied_deltas", "Delta applications across live nodes"),
            ("applied_rows", "repro_node_applied_rows", "Rows applied across live nodes"),
            ("columnar_batches", "repro_node_columnar_batches", "Columnar batches applied across live nodes"),
            ("columnar_rows", "repro_node_columnar_rows", "Rows applied in columnar form across live nodes"),
        ):
            gauge(name, help).set(
                sum(getattr(node, attribute) for node in nodes)
            )
        gauge("repro_memory_entries", "Stored memory entries, shared counted once").set(
            self.memory_size()
        )
        gauge("repro_memory_cells", "Stored tuple fields, shared counted once").set(
            self.memory_cells()
        )
        productions = [view._production for view in self._views]
        for attribute, name, help in (
            ("listing_splices", "repro_view_listing_splices_total", "Listing reads that spliced changed rows in"),
            ("listing_rebuilds", "repro_view_listing_rebuilds_total", "Listing reads that sorted from scratch"),
            ("listing_rows", "repro_view_listing_rows", "Rows held by view read listings (outside memory_cells)"),
        ):
            gauge(name, help).set(
                sum(getattr(production, attribute) for production in productions)
            )
        router = self._router
        for attribute, name, help in (
            ("events_routed", "repro_router_events_routed", "Events dispatched through interest routers"),
            ("batches_routed", "repro_router_batches_routed", "Consolidated batches dispatched through routers"),
            ("candidates_visited", "repro_router_candidates_visited", "Input nodes offered a routed event or batch"),
            ("union_hits", "repro_router_union_cache_hits", "Router candidate-union cache hits"),
            ("union_misses", "repro_router_union_cache_misses", "Router candidate-union cache misses"),
        ):
            gauge(name, help).set(getattr(router, attribute))
        expressions = cache_stats()  # process-wide, like the memo they count
        gauge("repro_expr_compiled_total", "Expression shapes generated and compile()d").set(
            expressions["compiled"]
        )
        gauge("repro_expr_cache_hits_total", "Expression compilations served from the memo").set(
            expressions["hits"]
        )
        layer = self.input_layer
        stats = layer.stats
        for value, name, help in (
            (stats.requests, "repro_sharing_input_requests", "Input-node requests across all views"),
            (stats.nodes, "repro_sharing_input_nodes", "Distinct input nodes ever created"),
            (stats.subplan_requests, "repro_sharing_subplan_requests", "Subplan cache probes"),
            (stats.subplan_hits, "repro_sharing_subplan_hits", "Subplan cache hits"),
            (stats.binding_core_hits, "repro_sharing_binding_core_hits", "New bindings that joined a live binding-indexed core"),
            (stats.replay_rows_scanned, "repro_sharing_replay_rows_scanned_total", "Rows examined by targeted activation"),
            (stats.replay_rows_emitted, "repro_sharing_replay_rows_emitted_total", "Rows targeted activation handed to new subscribers"),
            (stats.acquires, "repro_sharing_acquires", "Subplan refcount acquires"),
            (stats.releases, "repro_sharing_releases", "Subplan refcount releases"),
            (stats.pruned, "repro_sharing_pruned", "Shared nodes dropped by prune"),
            (layer.subplan_count, "repro_sharing_subplans_live", "Live cached subplan entries"),
            (layer.binding_node_count, "repro_sharing_binding_nodes", "Live binding-indexed selection nodes"),
            (layer.binding_partition_count, "repro_sharing_binding_partitions", "Live binding partitions"),
        ):
            gauge(name, help).set(value)

    def metrics_snapshot(self) -> dict | None:
        """JSON-ready metrics snapshot, or ``None`` with collection off."""
        if self.metrics is None:
            return None
        return self.metrics.registry.snapshot()

    def view_costs(self) -> dict:
        """Maintenance cost attributed to each registered view.

        The cost unit is *row-work*: ``applied_rows + emitted_rows`` per
        node — the rows a node consumed plus the rows it pushed
        downstream, counted by the always-on traffic counters (so this
        works with ``collect_metrics`` off and never touches the hot
        path).  A view reads every layer-owned node upstream of the
        shared nodes it holds (the layer's ``upstream_closure``, the set
        ``memory_cells`` counts), and a shared node's cost is split evenly
        across the views that currently read it.  Only work no live view
        reads lands in the ``unattributed`` bucket.  The per-view shares
        plus that bucket sum to ``total`` exactly, up to float rounding.
        """
        closures = [
            self.input_layer.upstream_closure(view.network._shared_nodes.values())
            for view in self._views
        ]
        readers: dict[int, int] = {}
        for closure in closures:
            for node in closure:
                readers[id(node)] = readers.get(id(node), 0) + 1
        views = []
        attributed = 0.0
        for index, (view, closure) in enumerate(zip(self._views, closures)):
            cost = float(
                sum(
                    node.applied_rows + node.emitted_rows
                    for node in view.network.all_nodes
                )
            )
            shared = 0.0
            for node in closure:
                shared += (
                    node.applied_rows + node.emitted_rows
                ) / readers[id(node)]
            cost += shared
            attributed += cost
            views.append(
                {
                    "view": index,
                    "query": view.compiled.text,
                    "cost": cost,
                    "shared_cost": shared,
                }
            )
        total = float(
            sum(
                node.applied_rows + node.emitted_rows
                for node in self._live_nodes()
            )
        )
        return {
            "unit": "row-work (applied_rows + emitted_rows)",
            "views": views,
            "unattributed": total - attributed,
            "total": total,
        }


class BatchScope:
    """Context manager returned by :meth:`IncrementalEngine.batch`."""

    __slots__ = ("_engine",)

    def __init__(self, engine: IncrementalEngine):
        self._engine = engine

    def __enter__(self) -> "BatchScope":
        self._engine._begin_batch()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._engine._end_batch()
        return False
