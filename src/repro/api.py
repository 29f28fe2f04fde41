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
from typing import Any, Mapping

from .algebra.printer import format_plan
from .compiler.pipeline import CompiledQuery, compile_query, compile_syntax
from .cypher import ast
from .cypher.parser import UnionQuery, parse, parse_script
from .errors import UnsupportedForIncrementalError
from .eval.interpreter import Interpreter
from .eval.results import ResultTable
from .graph.graph import PropertyGraph
from .rete.engine import IncrementalEngine, View
from .updates import ExecutionResult, PreparedUpdate, UpdateSummary
from .views import AnswerStats, ViewCatalog


class QueryEngine:
    """Evaluate openCypher queries over a property graph, one-shot or
    incrementally.

    One-shot ``evaluate`` calls first consult the
    :class:`~repro.views.ViewCatalog`: a read whose plan is a live view's
    root — or that root under one σ, identity π, δ, ``ORDER BY`` on bare
    columns and ``SKIP``/``LIMIT`` — is served from that view's maintained
    listing instead of re-scanning the graph; every other read is
    recomputed by the interpreter.  Every production holds the bag the
    interpreter would compute, so a served result equals recomputation;
    ``evaluate(..., use_views=False)`` is that recomputation, per call.

    A view's ``on_change`` callbacks run once their commit has reached
    every view, in registration order.  One that raises stops no other
    delivery: the first error is re-raised once the last has run, and
    later ones are dropped.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        batch_transactions: bool = False,
        collect_metrics: bool = False,
        trace_batches: bool = False,
    ):
        self.graph = graph
        self._incremental = IncrementalEngine(
            graph,
            batch_transactions=batch_transactions,
            collect_metrics=collect_metrics,
            trace_batches=trace_batches,
        )
        self._catalog = ViewCatalog(self._incremental)
        if self._incremental.metrics is not None:
            self._incremental.metrics.registry.add_collector(
                self._collect_catalog_gauges
            )
        #: one entry per distinct statement text: a read's compiled plan or
        #: a write's prepared update (only successful ones are kept)
        self._statements: dict[str, CompiledQuery | PreparedUpdate] = {}

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
        """Compile (with caching) through GRA → NRA → FRA.

        Shares :meth:`execute`'s statement cache: one entry per text."""
        compiled = self._statements.get(query)
        if not isinstance(compiled, CompiledQuery):
            compiled = compile_query(query)  # raises for an updating query
            self._statements[query] = compiled
        return compiled

    def evaluate(
        self,
        query: str,
        parameters: Mapping[str, Any] | None = None,
        use_views: bool = True,
    ) -> ResultTable:
        """One-shot evaluation: from a view root's listing when possible.

        A catalog miss — no view root under a listing read, parameter
        mismatch, open batch window — falls back to full recomputation,
        so the result is identical either way; ``use_views=False`` is the
        explicit recomputation baseline (and what differential oracles
        should ask for).
        """
        return self._evaluate(self.compile(query), parameters, use_views)

    def _evaluate(
        self,
        compiled: CompiledQuery,
        parameters: Mapping[str, Any] | None,
        use_views: bool = True,
    ) -> ResultTable:
        if use_views:
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

        Each distinct text is parsed and prepared (or compiled) once, and
        shares the cache :meth:`compile` uses; *parameters* bind per call.
        """
        statement = self._statements.get(query)
        if statement is None:
            statement = self._prepare(query, parse(query))
            self._statements[query] = statement
        return self._run(statement, parameters)

    def _prepare(
        self, text: str, syntax: ast.Query | ast.UpdatingQuery | UnionQuery
    ) -> CompiledQuery | PreparedUpdate:
        if isinstance(syntax, ast.UpdatingQuery):
            return PreparedUpdate(self.graph, syntax)
        return compile_syntax(text, syntax)

    def _run(
        self,
        statement: CompiledQuery | PreparedUpdate,
        parameters: Mapping[str, Any] | None,
    ) -> ExecutionResult:
        if isinstance(statement, PreparedUpdate):
            return statement.run(parameters, self._update_batcher())
        return ExecutionResult(UpdateSummary(), self._evaluate(statement, parameters))

    def _update_batcher(self):
        """Batch-scope factory handed to update executors.

        With ``batch_transactions`` enabled, a write query's side effects
        reach the views as one consolidated delta after its transaction
        commits; otherwise ``None`` keeps the per-event path (and the
        mid-query trigger semantics that come with it: each write is a
        commit of its own, so an ``on_change`` callback sees the
        statement's earlier writes but not its later ones, and a callback
        that raises fails the statement, which rolls back).  Either way a
        trigger runs once its commit has reached every view, so every view
        it reads, served or not, equals recomputation; a write it makes is
        the next commit, whose callbacks run after it returns.  The first
        error a callback raises re-raises after the last delivery.
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
        :class:`ExecutionResult` per statement.  Each statement is prepared
        (or compiled) from its parsed form as it is reached; script
        statements do not enter the statement cache.
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
                results.append(
                    self._run(self._prepare(script, statement), parameters)
                )
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
        """The compilation pipeline's stages for *query*, the plan
        ``register`` would build from it now, and how view answering would
        serve it against the current catalog."""
        compiled = self.compile(query)
        text = compiled.explain()
        if compiled.is_incremental:
            plan = self._incremental.plan_to_build(compiled, parameters)
            built = format_plan(
                plan, sources=True, notes=self._incremental.live_notes(parameters)
            )
            text += f"\n\n== Built plan (what register builds now) ==\n{built}"
        match = self._catalog.describe_match(compiled, parameters)
        text += f"\n\n== View answering ==\n{match}"
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
    def catalog(self) -> ViewCatalog:
        """The view-answering catalog."""
        return self._catalog

    def answer_stats(self) -> AnswerStats:
        """Counters of how evaluate() calls were served."""
        return self._catalog.stats

    # -- observability --------------------------------------------------------

    def metrics_snapshot(self) -> dict | None:
        """JSON-ready metrics snapshot (``None`` with ``collect_metrics``
        off)."""
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
        """Sample view-catalog counters and the statement-cache size into
        gauges at snapshot time."""
        gauge = self._incremental.metrics.registry.gauge
        help_by_name = {
            "queries": "View-catalog probes (try_answer calls)",
            "answered": "One-shot queries served from a view root's listing",
            "exact": "Catalog answers whose plan is a view root: its canonical listing",
            "residual": "σ/δ/ORDER BY/SKIP/LIMIT reads served as a slice of a view's maintained listing",
            "fallbacks": "Catalog declines (no root / params / stale / predicate raised)",
            "stale_declines": "Declines forced by an open batch window",
            "memo_hits": "Catalog matches (hits and misses) served from the match memo",
        }
        for name, value in self._catalog.stats.as_dict().items():
            gauge(
                f"repro_catalog_{name}",
                help_by_name.get(name, "View-catalog counter"),
            ).set(value)
        gauge(
            "repro_statements_prepared",
            "Distinct statement texts held compiled or prepared",
        ).set(len(self._statements))

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
