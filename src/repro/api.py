"""Public façade: one object for both evaluation modes.

:class:`QueryEngine` bundles the two executors the paper contrasts:

* ``evaluate(query)`` — one-shot full evaluation (supports the complete
  implemented openCypher fragment, including ORDER BY / SKIP / LIMIT),
* ``register(query)`` — an incrementally maintained view (the paper's
  maintainable fragment: bags + atomic paths, no ordering).

Example
-------
>>> from repro import PropertyGraph, QueryEngine
>>> graph = PropertyGraph()
>>> engine = QueryEngine(graph)
>>> post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
>>> view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
>>> view.rows()
[('en',)]
>>> graph.set_vertex_property(post, "lang", "de")
>>> view.rows()
[('de',)]
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict
from typing import Any, Mapping

from .compiler.pipeline import CompiledQuery, compile_query
from .cypher import ast
from .cypher.parser import parse, parse_script
from .cypher.unparser import unparse
from .errors import UnsupportedForIncrementalError
from .eval.interpreter import Interpreter
from .eval.results import ResultTable
from .graph.graph import PropertyGraph
from .rete.engine import IncrementalEngine, View
from .rete.shard import ShardCoordinator
from .rete.sharing import SharedSubplanLayer
from .updates import ExecutionResult, UpdateExecutor, UpdateSummary
from .views import AnswerStats, ViewCatalog


class QueryEngine:
    """Evaluate openCypher queries over a property graph, one-shot or
    incrementally.

    With ``answer_from_views=True`` (the default) one-shot ``evaluate``
    calls first consult the :class:`~repro.views.ViewCatalog`: when a
    registered view — or a shared interior subplan of one — already
    materialises the query (or a subtree the query is residual work over),
    the result is served from live maintained state instead of re-scanning
    the graph.  ``evaluate(..., use_views=False)`` forces the full
    recomputation baseline per call; ``answer_from_views=False`` disables
    the catalog engine-wide (the ablation configuration).

    With ``workers=N`` (N ≥ 1) incremental maintenance runs on the sharded
    multi-process tier (:class:`~repro.rete.shard.ShardCoordinator`): views
    are partitioned across N forked worker processes by input-signature
    shard key, net batches fan out over pipes, and per-view ``on_change``
    streams merge back in registration order.  ``workers=0`` (the default)
    is the exact in-process PR 1–6 engine.  Sharding disables the view
    catalog (maintained state lives in the workers, not this process), so
    one-shot ``evaluate`` always recomputes.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        transitive_mode: str = "trails",
        share_inputs: bool = True,
        batch_transactions: bool = False,
        route_events: bool = True,
        share_subplans: bool = True,
        answer_from_views: bool = True,
        detached_cache_size: int = 4,
        share_across_bindings: bool = True,
        columnar_deltas: bool = True,
        workers: int = 0,
        collect_metrics: bool = False,
        trace_batches: bool = False,
    ):
        self.graph = graph
        self.workers = workers
        if workers:
            self._incremental: IncrementalEngine = ShardCoordinator(
                graph,
                workers=workers,
                transitive_mode=transitive_mode,
                share_inputs=share_inputs,
                batch_transactions=batch_transactions,
                route_events=route_events,
                share_subplans=share_subplans,
                detached_cache_size=detached_cache_size,
                share_across_bindings=share_across_bindings,
                columnar_deltas=columnar_deltas,
                collect_metrics=collect_metrics,
                trace_batches=trace_batches,
            )
            # view answering needs in-process networks; ShardViews have none
            self.answer_from_views = False
            self._catalog = None
        else:
            self._incremental = IncrementalEngine(
                graph,
                transitive_mode=transitive_mode,
                share_inputs=share_inputs,
                batch_transactions=batch_transactions,
                route_events=route_events,
                share_subplans=share_subplans,
                detached_cache_size=detached_cache_size,
                share_across_bindings=share_across_bindings,
                columnar_deltas=columnar_deltas,
                collect_metrics=collect_metrics,
                trace_batches=trace_batches,
            )
            self.answer_from_views = answer_from_views
            self._catalog = ViewCatalog(self._incremental)
        if self._catalog is not None and self._incremental.metrics is not None:
            self._incremental.metrics.registry.add_collector(
                self._collect_catalog_gauges
            )
        self._plan_cache: dict[str, CompiledQuery] = {}

    @property
    def batch_transactions(self) -> bool:
        """Whether transactions (and write queries) propagate as one batch."""
        return self._incremental.batch_transactions

    def batch(self):
        """Defer view maintenance: one net delta per input node on exit.

        >>> from repro import PropertyGraph, QueryEngine
        >>> graph = PropertyGraph()
        >>> engine = QueryEngine(graph)
        >>> view = engine.register("MATCH (p:Post) RETURN p")
        >>> with engine.batch():
        ...     doomed = graph.add_vertex(labels=["Post"])
        ...     graph.remove_vertex(doomed)  # cancels inside the batch
        >>> view.rows()
        []
        """
        return self._incremental.batch()

    def compile(self, query: str) -> CompiledQuery:
        """Compile (with caching) through GRA → NRA → FRA."""
        compiled = self._plan_cache.get(query)
        if compiled is None:
            compiled = compile_query(query)
            self._plan_cache[query] = compiled
        return compiled

    def evaluate(
        self,
        query: str,
        parameters: Mapping[str, Any] | None = None,
        use_views: bool | None = None,
    ) -> ResultTable:
        """One-shot evaluation: from materialised views when possible.

        With ``use_views`` unset, the engine default (``answer_from_views``)
        decides.  A catalog miss — no covering view, parameter mismatch,
        open batch window — always falls back to full recomputation, so
        the result is identical either way; ``use_views=False`` is the
        explicit recomputation baseline (and what differential oracles
        should ask for).
        """
        compiled = self.compile(query)
        if use_views is None:
            use_views = self.answer_from_views
        if use_views and self._catalog is not None:
            answered = self._catalog.try_answer(compiled, parameters)
            if answered is not None:
                return answered
        return Interpreter(self.graph, parameters).run(compiled.plan)

    def execute(
        self, query: str, parameters: Mapping[str, Any] | None = None
    ) -> ExecutionResult:
        """Run *query*, reading or updating.

        Updating queries (CREATE / DELETE / SET / REMOVE / MERGE) run
        atomically through the update executor; their writes propagate to
        every registered incremental view.  Read-only queries evaluate
        one-shot and return an :class:`ExecutionResult` with an empty
        summary, so callers can use one entry point for both.
        """
        syntax = parse(query)
        if isinstance(syntax, ast.UpdatingQuery):
            return UpdateExecutor(
                self.graph, parameters, batcher=self._update_batcher()
            ).execute(syntax)
        return ExecutionResult(UpdateSummary(), self.evaluate(query, parameters))

    def _update_batcher(self):
        """Batch-scope factory handed to update executors.

        With ``batch_transactions`` enabled, a write query's side effects
        reach the views as one consolidated delta after its transaction
        commits; otherwise ``None`` keeps the per-event path (and the
        mid-query trigger semantics that come with it).
        """
        if self._incremental.batch_transactions:
            return self._incremental.batch
        return None

    def execute_script(
        self, script: str, parameters: Mapping[str, Any] | None = None
    ) -> list[ExecutionResult]:
        """Run a ``;``-separated statement sequence in one transaction.

        Statements execute in order and see each other's writes; a failure
        anywhere rolls back the whole script (views included).  Returns one
        :class:`ExecutionResult` per statement.
        """
        statements = parse_script(script)
        results: list[ExecutionResult] = []
        scope = (
            nullcontext()
            if self.graph.in_transaction
            else self.graph.transaction()
        )
        with scope:
            for statement in statements:
                if isinstance(statement, ast.UpdatingQuery):
                    results.append(
                        UpdateExecutor(
                            self.graph, parameters, batcher=self._update_batcher()
                        ).execute(statement)
                    )
                else:
                    # round-trip through the unparser: read statements use
                    # the compiled pipeline, which takes query text
                    table = self.evaluate(unparse(statement), parameters)
                    results.append(ExecutionResult(UpdateSummary(), table))
        return results

    def register(
        self,
        query: str | CompiledQuery,
        parameters: Mapping[str, Any] | None = None,
    ) -> View:
        """Register *query* as an incrementally maintained view.

        Accepts query text or a pre-compiled :class:`CompiledQuery` (e.g.
        one compiled with cost-based statistics).  Raises
        :class:`UnsupportedForIncrementalError` outside the paper's
        fragment.
        """
        compiled = self.compile(query) if isinstance(query, str) else query
        return self._incremental.register(compiled, parameters)

    def is_incremental(self, query: str) -> bool:
        """Whether *query* lies in the incrementally maintainable fragment."""
        return self.compile(query).is_incremental

    def explain(
        self, query: str, parameters: Mapping[str, Any] | None = None
    ) -> str:
        """The compilation pipeline's stages for *query*, plus how view
        answering would serve it against the current catalog."""
        compiled = self.compile(query)
        if self._catalog is None:
            match = "disabled (sharded tier: maintained state lives in workers)"
        else:
            match = self._catalog.describe_match(compiled, parameters)
        text = compiled.explain() + f"\n\n== View answering ==\n{match}"
        snapshot = self.metrics_snapshot()
        if snapshot is not None:
            lines = ["", "== Live stats =="]
            for name in (
                "repro_batches_total",
                "repro_events_total",
                "repro_views_live",
                "repro_nodes_live",
                "repro_memory_entries",
                "repro_sharing_binding_core_hits",
                "repro_catalog_answered",
                "repro_catalog_fallbacks",
                "repro_shard_batches_fanned_out",
            ):
                data = snapshot.get(name)
                if data is not None:
                    lines.append(f"{name} = {data['value']}")
            latency = snapshot.get("repro_batch_seconds")
            if latency is not None and latency["count"]:
                mean_ms = latency["sum"] / latency["count"] * 1000
                lines.append(
                    f"repro_batch_seconds: count={latency['count']} "
                    f"mean={mean_ms:.3f}ms"
                )
            text += "\n" + "\n".join(lines)
        return text

    @property
    def catalog(self) -> ViewCatalog | None:
        """The view-answering catalog (``None`` under ``workers=N``)."""
        return self._catalog

    def answer_stats(self) -> AnswerStats:
        """Counters of how evaluate() calls were served."""
        if self._catalog is None:
            return AnswerStats()
        return self._catalog.stats

    def shard_stats(self) -> dict:
        """Per-worker and aggregate maintenance counters.

        Under ``workers=N`` the real cluster picture: one section per
        worker plus aggregates.  The in-process engine answers the same
        shape with zero workers — empty ``workers``/zeroed coordinator
        counters and its own totals — so callers (the CLI's ``:shards``,
        dashboards) need no special case.
        """
        if isinstance(self._incremental, ShardCoordinator):
            return self._incremental.shard_stats()
        engine = self._incremental
        layer = engine.input_layer
        totals: dict[str, Any] = {
            "views": len(engine.views),
            "memory_size": engine.memory_size(),
            "memory_cells": engine.memory_cells(),
            "node_count": layer.node_count if layer is not None else 0,
            "sharing": asdict(layer.stats) if layer is not None else {},
        }
        if isinstance(layer, SharedSubplanLayer):
            totals["subplan_count"] = layer.subplan_count
            totals["binding_node_count"] = layer.binding_node_count
            totals["binding_partition_count"] = layer.binding_partition_count
            totals["detached_count"] = layer.detached_count
        return {
            "workers": [],
            "totals": totals,
            "views": len(engine.views),
            "coordinator": {
                "batches_fanned_out": 0,
                "records_fanned_out": 0,
                "records_sliced_away": 0,
            },
        }

    # -- observability --------------------------------------------------------

    def metrics_snapshot(self) -> dict | None:
        """JSON-ready metrics snapshot (``None`` with ``collect_metrics``
        off).  Under ``workers=N`` this merges the coordinator's pipeline
        metrics with every worker's node/router/sharing samples."""
        return self._incremental.metrics_snapshot()

    def view_costs(self) -> dict:
        """Maintenance cost attributed per view (see
        :meth:`~repro.rete.engine.IncrementalEngine.view_costs`)."""
        return self._incremental.view_costs()

    @property
    def tracing(self) -> bool:
        """Whether per-batch trace recording is currently on."""
        return self._incremental.trace_batches

    def set_tracing(self, enabled: bool) -> None:
        """Toggle per-batch trace recording at runtime.

        Recording costs one span per emit/apply hop while on; the latest
        finished tree is kept at :attr:`last_trace`.
        """
        self._incremental.trace_batches = bool(enabled)

    @property
    def last_trace(self):
        """Span tree of the most recently traced propagation, or ``None``."""
        return self._incremental.last_trace

    def _collect_catalog_gauges(self) -> None:
        """Sample view-catalog counters into gauges at snapshot time."""
        gauge = self._incremental.metrics.registry.gauge
        help_by_name = {
            "queries": "View-catalog probes (try_answer calls)",
            "answered": "One-shot queries served from maintained state",
            "exact": "Catalog answers covering the whole plan",
            "residual": "Catalog answers with residual operators on top",
            "root_hits": "Catalog sources read from view result tables",
            "subplan_hits": "Catalog sources read from shared subplan memories",
            "fallbacks": "Catalog declines (no cover / params / stale)",
            "stale_declines": "Declines forced by an open batch window",
            "memo_hits": "Catalog matches (hits and misses) served from the match memo",
            "listing_answers": "Exact hits returned as the view's maintained listing",
            "residual_listing_answers": "Residual σ/δ/ORDER BY/SKIP/LIMIT reads served as a slice of a view's maintained listing",
        }
        for name, value in self._catalog.stats.as_dict().items():
            gauge(
                f"repro_catalog_{name}",
                help_by_name.get(name, "View-catalog counter"),
            ).set(value)

    def shutdown(self) -> None:
        """Stop shard workers, if any.  A no-op for the in-process engine."""
        if isinstance(self._incremental, ShardCoordinator):
            self._incremental.shutdown()

    @property
    def views(self) -> tuple[View, ...]:
        return self._incremental.views

    def memory_size(self) -> int:
        """Total memory entries across all views, shared nodes counted once."""
        return self._incremental.memory_size()

    def memory_cells(self) -> int:
        """Total stored tuple fields, shared nodes counted once."""
        return self._incremental.memory_cells()


__all__ = ["QueryEngine", "ExecutionResult", "UnsupportedForIncrementalError"]
