"""Sharded maintenance tier: Rete propagation across worker processes.

Every optimisation so far accelerates one GIL-bound process.  This module
partitions the *maintenance work itself*: a :class:`ShardCoordinator`
places each registered view on one of N forked worker processes, fans the
per-transaction net batch (:mod:`repro.rete.batch`) out over
``multiprocessing`` pipes, and merges the per-worker ``on_change`` delta
streams back into ordered per-view notifications — the view-level
maintenance partitioning of MV4PG (arXiv:2411.18847), applied to the
paper's Rete networks, whose fragments decompose independently exactly as
Beyhl's generalized discrimination networks do (arXiv:1612.01641).

Placement — the shard key
-------------------------
Views land on ``crc32(sorted input signatures) % workers``: the same
©/⇑ signatures (:func:`~repro.rete.sharing.vertex_signature` /
:func:`~repro.rete.sharing.edge_signature`) that key the interest-indexed
:class:`~repro.rete.router.EventRouter` and the shared input layer.  Views
over the same base relations therefore co-locate, which keeps PR 3 subplan
sharing and the PR 5 binding tier effective *within* each worker — one
parameterised query registered under a thousand bindings still shares one
binding-free core, now on a single shard.

Workers — full replicas, interest-sliced dispatch
-------------------------------------------------
Workers host ordinary :class:`~repro.rete.engine.IncrementalEngine`\\ s
over a **full graph replica** (input-node translation consults live
adjacency, and ``populate()`` reads the graph, so partial replicas are
unsound).  The replica comes free: workers are forked, so the child
inherits the parent's graph memory copy-on-write; it only clears the
inherited listeners.  Each batch then travels to every worker once —
applied *silently* to the replica (listeners disabled,
``_restore_vertex``/``_restore_edge`` preserve entity ids) — while Rete
dispatch runs only over the slice of records the worker's
:class:`~repro.rete.router.InterestSummary` admits; a worker whose views
cannot be affected pays the replica update and nothing else.

Hand-off and ordering guarantees
--------------------------------
View migration reuses ``state_delta()`` as the wire format: the receiving
worker registers the view and populates it from *its own* replica — the
same replay path ``populate()`` uses for late registrants — and the
coordinator asserts the result equals the source production's serialised
state before detaching the original.  At the merge point the coordinator
blocks for every worker's reply, applies all mirror updates, then fires
``on_change`` callbacks in view registration order — exactly one call per
view per batch with the net delta, the single-process batch contract.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
import zlib
from time import perf_counter
from typing import Any, Callable, Mapping

from ..algebra import ops
from ..compiler.pipeline import CompiledQuery, compile_query
from ..errors import ShardError
from ..graph import events as ev
from ..graph.graph import PropertyGraph
from ..obs.metrics import merge_snapshots
from .batch import BatchAccumulator, CoalescedBatch
from .deltas import Delta
from .engine import IncrementalEngine, View
from .nodes.production import ProductionNode
from .router import InterestSummary

# ---------------------------------------------------------------------------
# shard key
# ---------------------------------------------------------------------------


def _signature_token(op: ops.Operator) -> str:
    """One canonical, process-independent string per input signature.

    Mirrors :func:`~repro.rete.sharing.vertex_signature` /
    :func:`~repro.rete.sharing.edge_signature` but sorts every set-valued
    component: builtin ``hash`` (and hence frozenset iteration order) is
    salted per process, and the shard key must be stable across runs.
    """
    if isinstance(op, ops.GetVertices):
        return repr(
            (
                "v",
                tuple(sorted(op.labels)),
                tuple(repr(p) for p in op.projections),
            )
        )
    assert isinstance(op, ops.GetEdges)
    return repr(
        (
            "e",
            tuple(sorted(op.types)),
            tuple(sorted(op.src_labels)),
            tuple(sorted(op.tgt_labels)),
            op.directed,
            op.projection_roles(),
        )
    )


def shard_key(plan: ops.Operator) -> int:
    """A stable digest of the plan's base-relation interest signatures."""
    tokens = {
        _signature_token(op)
        for op in plan.walk()
        if isinstance(op, (ops.GetVertices, ops.GetEdges))
    }
    return zlib.crc32("\n".join(sorted(tokens)).encode("utf-8"))


def shard_index(plan: ops.Operator, workers: int) -> int:
    return shard_key(plan) % workers


# ---------------------------------------------------------------------------
# batch splitting
# ---------------------------------------------------------------------------


def _vertex_record_relevant(summary: InterestSummary, event) -> bool:
    """Whether a consolidated vertex record can concern any summarised node.

    Over-approximates the router's candidate predicates (see
    :class:`~repro.rete.router.InterestSummary`): label sets are unioned
    across nodes and value-level buckets are ignored, so ``True`` may still
    yield an empty delta worker-side, but ``False`` is always safe.
    """
    if isinstance(event, ev.VertexChanged):
        labels = event.before_labels | event.after_labels
        if summary.vertex_wildcard or not summary.vertex_labels.isdisjoint(labels):
            return True
        # edge nodes watch endpoint transitions even when no © node matches
        changed_labels = event.before_labels ^ event.after_labels
        if changed_labels and (
            summary.endpoint_label_values
            or not summary.endpoint_labels.isdisjoint(changed_labels)
        ):
            return True
        if event.before_properties != event.after_properties:
            if summary.endpoint_all_properties:
                return True
            changed = ev.changed_property_keys(
                event.before_properties, event.after_properties
            )
            if not summary.endpoint_property_keys.isdisjoint(changed):
                return True
        return False
    # VertexAdded / VertexRemoved: membership is the only relevance channel
    # (an added/removed vertex has no incident edges inside the net batch)
    return summary.vertex_wildcard or not summary.vertex_labels.isdisjoint(
        event.labels
    )


def _edge_record_relevant(summary: InterestSummary, event) -> bool:
    return summary.edge_wildcard or event.edge_type in summary.edge_types


def split_batch(
    batch: CoalescedBatch, summary: InterestSummary | None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Indices of the records a worker must dispatch, or ``None`` for all.

    ``None`` means the coordinator has no (usable) interest summary for the
    worker — route-events disabled or private input layers — and the full
    batch must be dispatched.  The worker always applies the *whole* batch
    to its replica regardless; the slice governs Rete dispatch only.
    """
    if summary is None:
        return None
    vertex_indices = tuple(
        i
        for i, event in enumerate(batch.vertex_events)
        if _vertex_record_relevant(summary, event)
    )
    edge_indices = tuple(
        i
        for i, event in enumerate(batch.edge_events)
        if _edge_record_relevant(summary, event)
    )
    return (vertex_indices, edge_indices)


def _sliced(
    batch: CoalescedBatch,
    indices: tuple[tuple[int, ...], tuple[int, ...]] | None,
) -> CoalescedBatch | None:
    """Materialise a dispatch slice; ``None`` when nothing is relevant."""
    if indices is None:
        return batch
    vertex_indices, edge_indices = indices
    if not vertex_indices and not edge_indices:
        return None
    if len(vertex_indices) == len(batch.vertex_events) and len(
        edge_indices
    ) == len(batch.edge_events):
        return batch
    # the before-maps are shared unsliced: retraction rebuilding may consult
    # the window-start state of vertices whose own record was sliced away
    return CoalescedBatch(
        tuple(batch.vertex_events[i] for i in vertex_indices),
        tuple(batch.edge_events[i] for i in edge_indices),
        batch.vertex_before_labels,
        batch.vertex_before_properties,
        batch.raw_events,
    )


# ---------------------------------------------------------------------------
# silent replica maintenance
# ---------------------------------------------------------------------------


def apply_batch_to_replica(graph: PropertyGraph, batch: CoalescedBatch) -> None:
    """Apply a consolidated batch to a replica without emitting events.

    Ordering matters: edge removals run before vertex removals (the store
    forbids dangling edges, and consolidation guarantees every removed
    vertex's surviving-window edges appear as ``EdgeRemoved`` records),
    vertex additions before edge additions (endpoints must exist), and
    transitions in between.  ``_restore_vertex``/``_restore_edge`` preserve
    the parent's entity ids, keeping replica id counters in lockstep.
    """
    vertex_adds, vertex_removes, vertex_changes = [], [], []
    for event in batch.vertex_events:
        if isinstance(event, ev.VertexAdded):
            vertex_adds.append(event)
        elif isinstance(event, ev.VertexRemoved):
            vertex_removes.append(event)
        else:
            vertex_changes.append(event)
    edge_adds, edge_removes, edge_changes = [], [], []
    for event in batch.edge_events:
        if isinstance(event, ev.EdgeAdded):
            edge_adds.append(event)
        elif isinstance(event, ev.EdgeRemoved):
            edge_removes.append(event)
        else:
            edge_changes.append(event)

    listeners, graph._listeners = graph._listeners, []
    try:
        for event in edge_removes:
            graph.remove_edge(event.edge_id)
        for event in vertex_removes:
            graph.remove_vertex(event.vertex_id)
        for event in vertex_adds:
            graph._restore_vertex(event.vertex_id, event.labels, event.properties)
        for event in vertex_changes:
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
        for event in edge_adds:
            graph._restore_edge(
                event.edge_id,
                event.source,
                event.target,
                event.edge_type,
                event.properties,
            )
        for event in edge_changes:
            for key in ev.changed_property_keys(
                event.before_properties, event.after_properties
            ):
                graph.set_edge_property(
                    event.edge_id, key, event.after_properties.get(key)
                )
    finally:
        graph._listeners = listeners


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _engine_summary(engine: IncrementalEngine) -> InterestSummary | None:
    layer = engine.input_layer
    if layer is None or layer.router is None:
        return None
    return layer.router.interest_summary()


def _worker_main(conn, graph: PropertyGraph, config: dict) -> None:
    """The worker loop: one request → one reply, until shutdown or EOF.

    Runs in a forked child.  The inherited graph memory *is* the replica;
    the parent's listeners (other engines, the coordinator itself) came
    along with it and are severed first so replica maintenance stays local.
    """
    graph._listeners.clear()
    graph._tx_listeners.clear()
    graph._transaction = None
    engine = IncrementalEngine(graph, **config)
    views: dict[int, Any] = {}
    pending: dict[int, Delta] = {}
    counters = {"batches": 0, "dispatched_batches": 0, "dispatched_records": 0}

    def collector(view_id: int) -> Callable[[Delta], None]:
        def note(delta) -> None:
            held = pending.get(view_id)
            if held is None:
                pending[view_id] = Delta(delta.items())
            else:
                held.update(delta)

        return note

    def worker_stats() -> dict:
        from dataclasses import asdict

        from .sharing import SharedSubplanLayer

        layer = engine.input_layer
        stats = {
            "views": len(views),
            "memory_size": engine.memory_size(),
            "memory_cells": engine.memory_cells(),
            "node_count": layer.node_count if layer is not None else 0,
            "sharing": asdict(layer.stats) if layer is not None else {},
            # full metrics snapshot (None with collect_metrics off); the
            # coordinator merges these bucket-wise into the cluster view
            "metrics": engine.metrics_snapshot(),
        }
        stats.update(counters)
        if isinstance(layer, SharedSubplanLayer):
            stats["subplan_count"] = layer.subplan_count
            stats["binding_node_count"] = layer.binding_node_count
            stats["binding_partition_count"] = layer.binding_partition_count
            stats["detached_count"] = layer.detached_count
        return stats

    def handle(message: tuple):
        tag = message[0]
        if tag == "batch":
            batch = pickle.loads(message[1])
            apply_batch_to_replica(graph, batch)
            counters["batches"] += 1
            dispatch = _sliced(batch, message[2])
            if dispatch is not None and views:
                counters["dispatched_batches"] += 1
                counters["dispatched_records"] += len(
                    dispatch.vertex_events
                ) + len(dispatch.edge_events)
                engine._propagate_batch(dispatch)
            notes = [(vid, delta) for vid, delta in pending.items() if delta]
            pending.clear()
            return notes
        if tag == "register":
            _, view_id, text, parameters = message
            view = engine.register(text, parameters or None)
            views[view_id] = view
            view.on_change(collector(view_id))
            return (dict(view.multiset()), _engine_summary(engine))
        if tag == "detach":
            views.pop(message[1]).detach()
            return _engine_summary(engine)
        if tag == "state":
            return Delta(views[message[1]].multiset().items())
        if tag == "measure":
            view = views[message[1]]
            return (view.memory_size(), view.memory_cells())
        if tag == "profile":
            return views[message[1]].profile()
        if tag == "stats":
            return worker_stats()
        if tag == "view_costs":
            costs = engine.view_costs()
            # the worker attributes by its local view order; translate to
            # coordinator view ids so costs merge across workers
            vid_of = {id(view): vid for vid, view in views.items()}
            costs["views"] = [
                {**entry, "view": vid_of[id(engine.views[entry["view"]])]}
                for entry in costs["views"]
            ]
            return costs
        if tag == "shutdown":
            return None
        raise ShardError(f"unknown shard message {tag!r}")

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # coordinator is gone
        try:
            conn.send(("ok", handle(message)))
        except Exception:  # noqa: BLE001 - reported to the coordinator
            try:
                conn.send(("error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
        if message[0] == "shutdown":
            break
    conn.close()


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """The coordinator's end of one worker: process, pipe, interest digest."""

    __slots__ = ("index", "process", "conn", "summary")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: the worker's current InterestSummary (None = dispatch everything),
        #: refreshed by every register/detach reply
        self.summary: InterestSummary | None = None

    def send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(f"shard worker {self.index} is gone: {exc}") from exc

    def recv(self):
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardError(f"shard worker {self.index} died: {exc}") from exc
        if status == "error":
            raise ShardError(
                f"shard worker {self.index} failed:\n{payload}"
            )
        return payload

    def request(self, message: tuple):
        self.send(message)
        return self.recv()


class ShardView(View):
    """A continuously maintained query result hosted on a shard worker.

    The coordinator keeps a parent-side mirror — a
    :class:`~repro.rete.nodes.production.ProductionNode` initialised from
    the hosting worker's population and advanced by the merged ``on_change``
    deltas — in place of a local network's production node, so the whole
    read surface of :class:`~repro.rete.engine.View` (``rows``,
    ``multiset``, ``result_table``, ``on_change``) is served locally without
    a round trip.  :meth:`profile`/:meth:`memory_size` ask the worker, where
    the network actually lives.
    """

    def __init__(
        self,
        coordinator: "ShardCoordinator",
        compiled: CompiledQuery,
        parameters: Mapping[str, Any] | None,
        view_id: int,
        worker_index: int,
        initial: dict[tuple, int],
    ):
        # no View.__init__: there is no local network, only its mirror
        self._engine = coordinator
        self.compiled = compiled
        self.parameters = dict(parameters) if parameters else {}
        self.view_id = view_id
        self.worker_index = worker_index
        self._production = ProductionNode(compiled.plan.schema)
        self._production.results.update(initial)

    def memory_size(self) -> int:
        return self._worker.request(("measure", self.view_id))[0]

    def memory_cells(self) -> int:
        return self._worker.request(("measure", self.view_id))[1]

    def profile(self) -> str:
        """Per-node counters of this view's network, fetched from its shard.

        The header names the hosting worker: counters below it are that
        worker process's traffic, not the coordinator's (whose own network
        is intentionally empty).
        """
        profile = self._worker.request(("profile", self.view_id))
        return f"-- shard worker {self.worker_index} --\n{profile}"

    @property
    def _worker(self) -> _WorkerHandle:
        return self._engine._workers[self.worker_index]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ShardView({self.compiled.text!r}, worker={self.worker_index}, "
            f"rows={sum(self._production.results.values())})"
        )


class ShardCoordinator(IncrementalEngine):
    """Partitions view maintenance across forked worker processes.

    Drop-in for :class:`~repro.rete.engine.IncrementalEngine` where it
    matters — ``register``/``batch()``/transaction listening/``views`` —
    but propagation fans consolidated batches out to the workers instead of
    dispatching locally, and ``register`` returns a :class:`ShardView`.

    The flag set mirrors the single-process engine and is forwarded to
    every worker, so each ablation (``columnar_deltas``,
    ``share_across_bindings``, …) composes with sharding.  Requires the
    ``fork`` start method (the replica is the inherited address space) and
    a plain in-memory :class:`~repro.graph.graph.PropertyGraph` — forking a
    durable graph would multiplex its WAL across processes.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        workers: int = 2,
        transitive_mode: str = "trails",
        share_inputs: bool = True,
        batch_transactions: bool = False,
        route_events: bool = True,
        share_subplans: bool = True,
        detached_cache_size: int = 4,
        share_across_bindings: bool = True,
        columnar_deltas: bool = True,
        split_batches: bool = True,
        collect_metrics: bool = False,
        trace_batches: bool = False,
    ):
        if workers < 1:
            raise ShardError(f"workers must be >= 1, got {workers}")
        # share_inputs=False on the parent: the coordinator hosts no input
        # layer or networks of its own — all Rete state lives in the workers
        super().__init__(
            graph,
            transitive_mode=transitive_mode,
            share_inputs=False,
            batch_transactions=batch_transactions,
            route_events=route_events,
            share_subplans=share_subplans,
            detached_cache_size=detached_cache_size,
            share_across_bindings=share_across_bindings,
            columnar_deltas=columnar_deltas,
            collect_metrics=collect_metrics,
            trace_batches=trace_batches,
        )
        #: slice dispatch by worker interest summaries; ``False`` ships the
        #: full batch to every worker's Rete layer (ablation)
        self.split_batches = split_batches
        # collect_metrics is forwarded so each worker snapshots its own
        # node/router/sharing traffic (merged by metrics_snapshot);
        # trace_batches stays coordinator-side — node-level spans live in
        # the worker address space and the coordinator's trace records the
        # fan-out/merge phases instead
        self._worker_config = dict(
            transitive_mode=transitive_mode,
            share_inputs=share_inputs,
            batch_transactions=False,  # replica updates are silent
            route_events=route_events,
            share_subplans=share_subplans,
            detached_cache_size=detached_cache_size,
            share_across_bindings=share_across_bindings,
            columnar_deltas=columnar_deltas,
            collect_metrics=collect_metrics,
        )
        self._next_view_id = 0
        self._batches_fanned_out = 0
        self._records_fanned_out = 0
        self._records_sliced_away = 0
        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ShardError(
                "the sharded tier requires the fork start method"
            ) from exc
        self._workers: list[_WorkerHandle] = []
        for index in range(workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, graph, self._worker_config),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(index, process, parent_conn))
        # Subscribe immediately (the in-process engine waits for the first
        # register): worker replicas are frozen at fork time, so every
        # subsequent mutation must ship — even before any view exists.
        graph.subscribe(self._on_event)
        self._subscribed = True

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    # -- view lifecycle -------------------------------------------------------

    def register(
        self,
        query: str | CompiledQuery,
        parameters: Mapping[str, Any] | None = None,
    ) -> ShardView:
        """Place *query* on its shard and return the coordinator-side view."""
        if not self._workers:
            raise ShardError("coordinator has been shut down")
        compiled = compile_query(query) if isinstance(query, str) else query
        compiled.require_incremental()
        # Same contract as the single-process engine: a view joining
        # mid-batch populates from the live graph (via its worker's replica,
        # which the flush brings up to date first).
        if self._accumulator is not None and self._accumulator:
            self._flush_pending()
        handle = self._workers[shard_index(compiled.plan, len(self._workers))]
        view_id = self._next_view_id
        self._next_view_id += 1
        initial, summary = handle.request(
            ("register", view_id, compiled.text, dict(parameters or {}))
        )
        handle.summary = summary
        view = ShardView(self, compiled, parameters, view_id, handle.index, initial)
        self._views.append(view)
        if not self._subscribed:
            self.graph.subscribe(self._on_event)
            self._subscribed = True
        for listener in self._view_listeners:
            listener("register", view)
        return view

    def _detach(self, view: ShardView) -> None:
        self._views.remove(view)
        handle = self._workers[view.worker_index]
        handle.summary = handle.request(("detach", view.view_id))
        view._production.dispose()
        for listener in self._view_listeners:
            listener("detach", view)

    def migrate_view(self, view: ShardView, worker_index: int) -> ShardView:
        """Move a live view to another worker, between batches.

        The ``state_delta()`` hand-off protocol: serialise the source
        production's state, register on the target (which populates from
        its own replica — the late-registrant replay path), assert the two
        agree, then detach the source.  The parity check makes replica
        drift loud instead of silent.
        """
        if not 0 <= worker_index < len(self._workers):
            raise ShardError(f"no shard worker {worker_index}")
        if self.pending_changes():
            raise ShardError("cannot migrate a view inside an open batch window")
        if view not in self._views:
            raise ShardError("view is not registered with this coordinator")
        source = self._workers[view.worker_index]
        target = self._workers[worker_index]
        if source is target:
            return view
        state = source.request(("state", view.view_id))
        initial, summary = target.request(
            ("register", view.view_id, view.compiled.text, dict(view.parameters))
        )
        target.summary = summary
        if dict(state.items()) != initial:
            raise ShardError(
                f"state_delta hand-off parity violation migrating "
                f"{view.compiled.text!r} from worker {source.index} to "
                f"{target.index}"
            )
        source.summary = source.request(("detach", view.view_id))
        view.worker_index = worker_index
        return view

    def rebalance(self) -> int:
        """Migrate views until worker view counts differ by at most one."""
        moved = 0
        while True:
            counts = [0] * len(self._workers)
            for view in self._views:
                counts[view.worker_index] += 1
            heaviest = max(range(len(counts)), key=counts.__getitem__)
            lightest = min(range(len(counts)), key=counts.__getitem__)
            if counts[heaviest] - counts[lightest] <= 1:
                return moved
            candidate = next(
                v for v in self._views if v.worker_index == heaviest
            )
            self.migrate_view(candidate, lightest)
            moved += 1

    # -- propagation ----------------------------------------------------------

    def _on_event(self, event: ev.GraphEvent) -> None:
        if self._accumulator is not None:
            self._accumulator.record(event)
            return
        # Per-event mode still crosses the process boundary as a (one-record)
        # consolidated batch: the wire format is uniform and insert/delete
        # pairs inside compensation streams cancel exactly as they do locally.
        metrics = self.metrics
        start = perf_counter() if metrics is not None else 0.0
        accumulator = BatchAccumulator(self.graph)
        accumulator.record(event)
        self._propagate_batch(accumulator.consolidate())
        if metrics is not None:
            metrics.events.inc()
            metrics.event_seconds.observe(perf_counter() - start)

    def _propagate_batch(self, changes: CoalescedBatch, tracer=None) -> None:
        if not changes or not self._workers:
            return
        metrics = self.metrics
        # one pickle, N sends: replicas need the whole batch even where the
        # interest slice is empty, so the payload is shared verbatim
        records = len(changes.vertex_events) + len(changes.edge_events)
        if tracer is not None:
            tracer.enter("fanout", f"workers={len(self._workers)}", records)
        start = perf_counter() if metrics is not None else 0.0
        blob = pickle.dumps(changes, protocol=pickle.HIGHEST_PROTOCOL)
        changed: list[ProductionNode] = []
        self._dispatch_depth += 1
        try:
            for handle in self._workers:
                indices = (
                    split_batch(changes, handle.summary)
                    if self.split_batches
                    else None
                )
                if indices is not None:
                    self._records_sliced_away += records - (
                        len(indices[0]) + len(indices[1])
                    )
                handle.send(("batch", blob, indices))
            if metrics is not None:
                metrics.shard_fanout_seconds.observe(perf_counter() - start)
            if tracer is not None:
                tracer.exit()
                tracer.enter("merge", f"workers={len(self._workers)}")
            start = perf_counter() if metrics is not None else 0.0
            merged_notes: dict[int, Delta] = {}
            for handle in self._workers:
                # a view lives on exactly one worker: no delta collisions
                for view_id, delta in handle.recv():
                    merged_notes[view_id] = delta
            self._batches_fanned_out += 1
            self._records_fanned_out += records
            for view in self._views:
                delta = merged_notes.get(view.view_id)
                if delta is not None and delta:
                    mirror = view._production
                    mirror.begin_batch()  # its callbacks wait for the merge point
                    changed.append(mirror)
                    mirror.apply(delta, 0)
            if metrics is not None:
                metrics.shard_merge_seconds.observe(perf_counter() - start)
            if tracer is not None:
                tracer.exit()
        finally:
            self._dispatch_depth -= 1
            # the merge point: every mirror has caught up before the first
            # callback fires, and callbacks run in view registration order —
            # the same discipline as the single-process batch path.  One
            # raising callback must not strand the other mirrors in batch
            # mode (see engine._propagate_batch).
            error: BaseException | None = None
            for mirror in changed:
                try:
                    mirror.end_batch()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if error is None:
                        error = exc
            if error is not None:
                raise error

    # -- aggregated observability ---------------------------------------------

    def shard_stats(self) -> dict:
        """Cluster-truthful counters: per-worker stats plus aggregates.

        ``SharedSubplanLayer.prune()`` and the detached-LRU counters are
        process-local; under ``workers=N`` the per-worker sections here are
        the only faithful account of memory and sharing behaviour.
        """
        per_worker = []
        for handle in self._workers:
            stats = dict(handle.request(("stats",)))
            stats["worker"] = handle.index
            per_worker.append(stats)
        totals: dict[str, Any] = {}
        sharing_totals: dict[str, int] = {}
        for stats in per_worker:
            for key, value in stats.items():
                if key != "worker" and isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
            for key, value in stats.get("sharing", {}).items():
                sharing_totals[key] = sharing_totals.get(key, 0) + value
        totals["sharing"] = sharing_totals
        return {
            "workers": per_worker,
            "totals": totals,
            "views": len(self._views),
            "coordinator": {
                "batches_fanned_out": self._batches_fanned_out,
                "records_fanned_out": self._records_fanned_out,
                "records_sliced_away": self._records_sliced_away,
            },
        }

    def _collect_gauges(self) -> None:
        """Coordinator-side gauges only: fan-out traffic and worker count.

        Node/memory/router/sharing gauges come from the workers' own
        snapshots (every Rete node lives there) and are summed into the
        cluster view by :meth:`metrics_snapshot` — the coordinator setting
        them too would double-count.
        """
        gauge = self.metrics.registry.gauge
        gauge("repro_shard_workers", "Live shard worker processes").set(
            len(self._workers)
        )
        gauge(
            "repro_shard_batches_fanned_out",
            "Consolidated batches shipped to every worker",
        ).set(self._batches_fanned_out)
        gauge(
            "repro_shard_records_fanned_out",
            "Net records shipped (replica maintenance)",
        ).set(self._records_fanned_out)
        gauge(
            "repro_shard_records_sliced_away",
            "Record dispatches skipped by interest slicing",
        ).set(self._records_sliced_away)
        self._collect_listing_gauges()

    def metrics_snapshot(self) -> dict | None:
        """Cluster-wide snapshot: coordinator metrics plus all workers'.

        Counters, gauges and histogram buckets sum across processes (see
        :func:`~repro.obs.metrics.merge_snapshots`); ``None`` with
        ``collect_metrics`` off.
        """
        if self.metrics is None:
            return None
        snapshots = [self.metrics.registry.snapshot()]
        for handle in self._workers:
            worker = handle.request(("stats",)).get("metrics")
            if worker:
                snapshots.append(worker)
        return merge_snapshots(snapshots)

    def view_costs(self) -> dict:
        """Per-view maintenance cost, merged across the workers.

        Each worker attributes its own row-work exactly as the in-process
        engine does; entries come back keyed by coordinator view id with
        the hosting worker recorded, and the unattributed/total figures
        sum across workers.
        """
        per_view: dict[int, dict] = {}
        unit = "row-work (applied_rows + emitted_rows)"
        unattributed = 0.0
        total = 0.0
        for handle in self._workers:
            costs = handle.request(("view_costs",))
            unit = costs["unit"]
            unattributed += costs["unattributed"]
            total += costs["total"]
            for entry in costs["views"]:
                entry["worker"] = handle.index
                per_view[entry["view"]] = entry
        return {
            "unit": unit,
            "views": [
                per_view[view.view_id]
                for view in self._views
                if view.view_id in per_view
            ],
            "unattributed": unattributed,
            "total": total,
        }

    def memory_size(self) -> int:
        """Total memory entries across all workers (shared nodes once each)."""
        return sum(
            handle.request(("stats",))["memory_size"] for handle in self._workers
        )

    def memory_cells(self) -> int:
        """Total stored tuple fields across all workers."""
        return sum(
            handle.request(("stats",))["memory_cells"] for handle in self._workers
        )

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and unhook from the graph.  Idempotent."""
        workers, self._workers = self._workers, []
        if self._subscribed:
            try:
                self.graph.unsubscribe(self._on_event)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._subscribed = False
        if self.batch_transactions:
            try:
                self.graph.unsubscribe_transactions(self._on_transaction)
            except ValueError:  # pragma: no cover - defensive
                pass
        for handle in workers:
            try:
                handle.conn.send(("shutdown",))
                handle.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            handle.conn.close()
            handle.process.join(timeout=5)
