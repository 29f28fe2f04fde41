"""The view catalog: answering one-shot queries from materialised views.

The paper's engine maintains views incrementally but, until this module,
every ``evaluate()`` still paid full recomputation — even when a
registered view (or a shared interior subplan of one) already held exactly
the state the query needs.  MV4PG (Xu et al., 2024) calls view matching +
query rewriting the missing half of a materialised-view system for
property graphs; this module supplies it on top of the reproduction's two
existing identities:

* every registered view's **root** result lives in its production node,
* with cross-view sharing, every shareable **interior subplan** of every
  view lives in the engine's :class:`~repro.rete.sharing.SharedSubplanLayer`,
  keyed by ``(fingerprint, parameter bindings, variant)`` and kept exactly
  current by delta propagation.

:class:`ViewCatalog` indexes the roots under the *same* key shape and
treats the sharing layer as the subplan tier of the catalog, so matching a
one-shot plan is a dict lookup per subtree — no containment search over
query text, no re-derivation.  A hit is served through the targeted-
activation protocol (``state_delta`` — reconstruct a node's output bag
from its memories) and spliced into the plan as a
:class:`~repro.algebra.ops.ViewScan` leaf; residual operators above the
splice point run unchanged in the pull interpreter.

Consistency rules (each one differentially tested):

* inside an open batch / transaction window the graph is ahead of the
  networks, so the catalog declines and evaluation falls back to the
  graph — snapshot reads are never served stale;
* a detached view leaves the root index immediately (the engine notifies
  the catalog before ``detach()`` returns); its subplans survive exactly
  as long as the sharing layer keeps maintaining them (held by other
  views, or retained in the detached LRU — both stay current);
* parameterised subtrees match only under equal resolved bindings;
* in ``reachability`` transitive mode the maintained closure semantics
  differ from the interpreter's trail semantics, so subtrees containing a
  transitive join are never served there.

Read cost: a read over one view root whose residual is a chain of σ (its
predicate a function of the row alone), identity π and δ, optionally
topped by ``ORDER BY`` on bare columns and ``SKIP`` / ``LIMIT``, is a slice
of a listing the production node maintains for that spec (see
:func:`listing_read` and
:meth:`~repro.rete.nodes.production.ProductionNode.listing`): it costs the
rows changed since that listing's last read plus the slice, with no bag
copy, no interpreter run and no sort.  An exact hit is the same path with
the empty spec, the canonical listing.  Any other residual — γ, joins, a
second σ, sorting on an expression — and every shared-subplan hit runs the
interpreter over a fresh copy of the materialised bag.  The match itself,
with the listing spec it implies, is memoised per (compiled query,
type-exact parameter bindings) and the memo is cleared on every view
register/detach event — the only points where what
:meth:`ViewCatalog.lookup` can see changes (``prune()`` and detached-LRU
eviction run inside detach).  A memoised read therefore does not refresh a
retained subplan's LRU recency; the first read after each lifecycle event
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..algebra import ops
from ..algebra.expressions import (
    EvalContext,
    compile_expr,
    compile_predicate,
    reads_graph,
)
from ..algebra.printer import format_compact, format_label
from ..algebra.schema import Schema
from ..cypher import ast
from ..errors import InvalidValueError, ReproError
from ..eval.interpreter import Interpreter, checked_count
from ..eval.results import ResultTable
from ..rete.deltas import as_row_delta
from ..rete.nodes.production import ListingSpec
from ..rete.sharing import SharedSubplanLayer, binding_key, subplan_cache_key
from .matcher import rewrite_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compiler.pipeline import CompiledQuery
    from ..rete.engine import IncrementalEngine, View
    from ..rete.nodes.production import ProductionNode
    from .rewriter import RewriteResult

Bag = dict[tuple, int]
_Match = tuple["RewriteResult", "ListingRead | None"]

#: match-memo entries kept before the memo is cleared wholesale
MATCH_MEMO_LIMIT = 1024


@dataclass(frozen=True)
class MaterializedSource:
    """One servable materialisation: where a spliced scan reads from."""

    #: returns a fresh ``row → multiplicity`` bag of the current contents
    fetch: Callable[[], Bag]
    #: human-readable origin, for EXPLAIN / the CLI
    description: str
    #: ``"view"`` (production-backed root) or ``"subplan"`` (shared node)
    kind: str
    #: view roots only: the production node whose maintained listings
    #: serve reads (the canonical one feeds the scan's ``listing``)
    production: "ProductionNode | None" = None


@dataclass
class AnswerStats:
    """Counters for the ablation report and EXPLAIN output."""

    queries: int = 0  # try_answer calls
    answered: int = 0  # served from the catalog
    exact: int = 0  # whole plan was one materialisation
    residual: int = 0  # served with residual operators on top
    root_hits: int = 0  # sources read from view result tables
    subplan_hits: int = 0  # sources read from shared subplan memories
    fallbacks: int = 0  # full evaluation (no cover / params / stale)
    stale_declines: int = 0  # fallbacks forced by an open batch window
    memo_hits: int = 0  # matches (hits and misses) served from the memo
    listing_answers: int = 0  # exact hits returned as a view's listing
    residual_listing_answers: int = 0  # residuals served as a listing slice

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass(frozen=True)
class ListingRead:
    """A plan served as a slice of one view root's maintained listing."""

    production: "ProductionNode"
    spec: ListingSpec
    #: the ``SKIP``/``LIMIT`` counts over the listing, innermost first, as
    #: ``(is a limit, compiled count)``
    slices: tuple[tuple[bool, Callable], ...]
    #: the plan's top is ordering: its result is a sequence, not a bag
    ordered: bool
    #: the residual operators the listing stands for, outermost first
    description: str

    def serve(
        self, schema, parameters: Mapping[str, Any], graph
    ) -> ResultTable | None:
        """The result table, or ``None`` when the listing's predicate
        raised (the interpreter path then meets the error itself)."""
        rows = self.production.listing(self.spec, parameters)
        if rows is None:
            return None
        start, stop = 0, len(rows)
        if self.slices:
            ctx = EvalContext(dict(parameters))
            for is_limit, count in self.slices:  # as Interpreter.run applies them
                n = checked_count(count((), ctx))
                if is_limit:
                    stop = min(stop, start + n)
                else:
                    start = min(start + n, stop)
        return ResultTable(
            schema,
            rows[start:stop],
            ordered=self.ordered,
            canonical=not self.ordered,
            graph=graph,
        )


def listing_read(
    rewrite: "RewriteResult", parameters: Mapping[str, Any]
) -> ListingRead | None:
    """Serve *rewrite* from its view root's listings, if its shape allows.

    That shape is one exact root scan under a chain of σ (at most one, its
    predicate a function of the row alone), identity π and δ, optionally
    topped by a ``Sort`` on bare columns and then ``SKIP``/``LIMIT``.  The
    σ, the δ and the sort items make the listing's spec; the counts slice
    it.  Anything else is ``None``: the interpreter path serves it.
    """
    op = rewrite.plan
    slices, labels = [], []
    while isinstance(op, (ops.Skip, ops.Limit)):
        try:
            count = compile_expr(op.count, Schema(()))
        except ReproError:
            return None
        slices.append((isinstance(op, ops.Limit), count))
        labels.append(format_label(op))
        op = op.children[0]
    order: tuple[tuple[int, bool], ...] = ()
    if isinstance(op, ops.Sort):
        schema = op.children[0].schema
        if not all(isinstance(e, ast.Variable) and e.name in schema for e, _ in op.items):
            return None
        order = tuple((schema.index_of(e.name), ascending) for e, ascending in op.items)
        labels.append(format_label(op))
        op = op.children[0]
    select, distinct = None, False
    while not isinstance(op, ops.ViewScan):
        if isinstance(op, ops.Dedup):
            distinct = True
        elif isinstance(op, ops.Select) and select is None:
            select = op
        elif not (isinstance(op, ops.Project) and _identity(op)):
            return None
        if not isinstance(op, ops.Project):
            labels.append(format_label(op))
        op = op.children[0]
    production = rewrite.sources[0].production
    if production is None:
        return None  # a shared subplan: no listings there
    predicate, bindings = None, ()
    if select is not None:
        schema = select.children[0].schema
        names = dict.fromkeys(
            n.name for n in ast.walk(select.predicate) if isinstance(n, ast.Parameter)
        )
        try:
            if reads_graph(select.predicate, schema):
                return None
            bindings = tuple((name, binding_key(parameters[name])) for name in names)
            predicate = compile_predicate(select.predicate, schema).row
        except (KeyError, TypeError, ReproError):
            return None  # unbound, unkeyable or uncompilable: not a spec
    return ListingRead(
        production,
        ListingSpec(predicate, bindings, distinct, order),
        tuple(reversed(slices)),
        bool(slices) or bool(order),
        " ∘ ".join(labels),
    )


def _identity(op: ops.Project) -> bool:
    """Whether π *op* passes each row through unchanged."""
    names = [e.name if isinstance(e, ast.Variable) else None for _, e in op.items]
    return names == list(op.children[0].schema.names)


class ViewCatalog:
    """Fingerprint-indexed registry of everything live views materialise.

    Owned by :class:`~repro.api.QueryEngine`; subscribes to the
    incremental engine's view lifecycle so the root index tracks
    register/detach exactly, and reads the sharing layer in place for the
    subplan tier (which the layer already keeps consistent under
    register/detach/prune).
    """

    def __init__(self, engine: "IncrementalEngine"):
        self._engine = engine
        #: catalog key → views materialising exactly that plan (FIFO serve)
        self._roots: dict[tuple, list["View"]] = {}
        self._root_keys: dict[int, tuple] = {}  # id(view) → its key
        #: (id(compiled), binding keys) → (compiled, match or None)
        self._memo: dict[tuple, tuple["CompiledQuery", "_Match | None"]] = {}
        self.stats = AnswerStats()
        engine.subscribe_views(self._on_view_event)
        for view in engine.views:
            self._index_view(view)

    # -- lifecycle ----------------------------------------------------------

    def _variant(self) -> tuple:
        return (self._engine.transitive_mode,)

    def _on_view_event(self, phase: str, view: "View") -> None:
        self._memo.clear()
        if phase == "register":
            self._index_view(view)
        else:
            self._drop_view(view)

    def _index_view(self, view: "View") -> None:
        key = subplan_cache_key(
            view.compiled.plan, view.network.ctx.parameters, self._variant()
        )
        if key is None:
            return  # unfingerprintable plan: maintained, but never matched
        self._roots.setdefault(key, []).append(view)
        self._root_keys[id(view)] = key

    def _drop_view(self, view: "View") -> None:
        key = self._root_keys.pop(id(view), None)
        if key is None:
            return
        views = self._roots.get(key)
        if views is not None:
            views.remove(view)
            if not views:
                del self._roots[key]

    # -- matching -----------------------------------------------------------

    @property
    def root_count(self) -> int:
        return sum(len(views) for views in self._roots.values())

    def _subplan_layer(self) -> SharedSubplanLayer | None:
        layer = self._engine.input_layer
        return layer if isinstance(layer, SharedSubplanLayer) else None

    @property
    def probes_lifted_plans(self) -> bool:
        """Whether maintained state may live under lifted plan shapes.

        True exactly when cross-binding sharing is active: views are then
        registered with parameter-dependent selections lifted above their
        binding-free cores, so the matcher must probe that form too.
        """
        layer = self._subplan_layer()
        return layer is not None and layer.share_across_bindings

    @property
    def subplan_count(self) -> int:
        layer = self._subplan_layer()
        return layer.subplan_count if layer is not None else 0

    def _servable(self, op: ops.Operator) -> bool:
        """Whether serving *op*'s subtree preserves one-shot semantics.

        Only the transitive closure has a mode whose maintained semantics
        (reachability: one row per reachable target) diverge from the
        interpreter's reference semantics (trails: one row per edge-
        distinct walk); everywhere else maintained state *is* the bag the
        interpreter would compute.
        """
        if self._engine.transitive_mode == "trails":
            return True
        return not any(isinstance(o, ops.TransitiveJoin) for o in op.walk())

    def lookup(
        self, op: ops.Operator, parameters: Mapping[str, Any]
    ) -> MaterializedSource | None:
        """The live materialisation covering *op* exactly, if any.

        Root entries (production-backed — the whole result is already a
        bag) win over shared subplans (reconstructed from node memories
        via ``state_delta``).  Pure read: no stats side effects, so the
        matcher and EXPLAIN can probe freely.
        """
        key = subplan_cache_key(op, parameters, self._variant())
        if key is None:
            return None
        views = self._roots.get(key)
        if views and self._servable(op):
            view = views[0]
            production = view.network.production
            return MaterializedSource(
                fetch=production.multiset,
                description=f"view[{view.compiled.text.strip()}]",
                kind="view",
                production=production,
            )
        layer = self._subplan_layer()
        if layer is not None:
            node = layer.subplan_peek(key)
            if node is not None and self._servable(op):
                def fetch(layer=layer, node=node) -> Bag:
                    return dict(as_row_delta(layer.state_delta(node)).items())

                return MaterializedSource(
                    fetch=fetch,
                    description=f"subplan[{_compact(op)}]",
                    kind="subplan",
                )
            # binding-indexed tier: a parameterised σ whose shape is
            # maintained for this exact binding as one partition of a
            # shared node — reconstructed by asking the shared core for
            # the rows the binding's equality conjuncts admit (the whole
            # core only when it has none) and confirming the predicate
            partition = layer.partition_peek(op, parameters, self._variant())
            if partition is not None and self._servable(op):
                def fetch_partition(layer=layer, node=partition) -> Bag:
                    return dict(as_row_delta(layer.state_delta(node)).items())

                return MaterializedSource(
                    fetch=fetch_partition,
                    description=f"binding-partition[{_compact(op)}]",
                    kind="subplan",
                )
        return None

    # -- answering ----------------------------------------------------------

    def try_answer(
        self,
        compiled: "CompiledQuery",
        parameters: Mapping[str, Any] | None = None,
    ) -> ResultTable | None:
        """Answer *compiled* from materialised state, or ``None`` to fall
        back to full evaluation."""
        self.stats.queries += 1
        if self._engine.pending_changes():
            # an open batch window: the graph is ahead of every memory
            self.stats.stale_declines += 1
            self.stats.fallbacks += 1
            return None
        if not self._roots and self.subplan_count == 0:
            self.stats.fallbacks += 1
            return None
        match = self._match(compiled, parameters)
        if match is None:
            self.stats.fallbacks += 1
            return None
        rewrite, read = match
        self.stats.answered += 1
        if rewrite.exact:
            self.stats.exact += 1
        else:
            self.stats.residual += 1
        for source in rewrite.sources:
            if source.kind == "view":
                self.stats.root_hits += 1
            else:
                self.stats.subplan_hits += 1
        if read is not None:
            # a slice of a listing the view maintains: the very rows, in the
            # very order, the interpreter would derive from the root's bag
            table = read.serve(
                compiled.plan.schema, parameters or {}, self._engine.graph
            )
            if table is not None:
                if rewrite.exact:
                    self.stats.listing_answers += 1
                else:
                    self.stats.residual_listing_answers += 1
                return table
        return Interpreter(self._engine.graph, parameters).run(rewrite.plan)

    def _match(
        self,
        compiled: "CompiledQuery",
        parameters: Mapping[str, Any] | None,
    ) -> "_Match | None":
        """:func:`rewrite_query` and :func:`listing_read`, memoised until
        the next view event."""
        try:
            bindings = sorted(
                (name, binding_key(value)) for name, value in (parameters or {}).items()
            )
        except (TypeError, InvalidValueError):
            # a binding with no type-exact key: match without the memo
            return _rewrite(self, compiled, parameters)
        key = (id(compiled), tuple(bindings))
        entry = self._memo.get(key)
        if entry is not None and entry[0] is compiled:
            self.stats.memo_hits += 1
            return entry[1]
        match = _rewrite(self, compiled, parameters)
        if len(self._memo) >= MATCH_MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = (compiled, match)
        return match

    def describe_match(
        self,
        compiled: "CompiledQuery",
        parameters: Mapping[str, Any] | None = None,
    ) -> str:
        """EXPLAIN section: what view answering would do for *compiled*.

        Pure — no stats side effects and no result materialisation.
        """
        if self._engine.pending_changes():
            return (
                "declined (open batch/transaction window — maintained "
                "state lags the graph); full evaluation"
            )
        match = _rewrite(self, compiled, parameters)
        if match is None:
            return "no covering view or shared subplan; full evaluation"
        rewrite, read = match
        lines = []
        if rewrite.exact:
            lines.append(f"exact hit: {rewrite.sources[0].description}")
            if read is not None:
                lines.append("  served from the view's maintained listing")
        elif read is not None:
            lines.append(f"residual hit: {rewrite.sources[0].description}")
            lines.append(
                f"  served from the view's maintained listing: {read.description}"
            )
        else:
            lines.append(
                f"containment hit: residual plan over "
                f"{len(rewrite.sources)} materialised source(s)"
            )
            for source in rewrite.sources:
                lines.append(f"  - {source.description}")
        return "\n".join(lines)


def _rewrite(
    catalog: ViewCatalog,
    compiled: "CompiledQuery",
    parameters: Mapping[str, Any] | None,
) -> "_Match | None":
    """The catalog's match for *compiled*: the rewritten plan, and how a
    view's listing serves it (``None`` when the interpreter must)."""
    rewrite = rewrite_query(catalog, compiled, parameters)
    if rewrite is None:
        return None
    return rewrite, listing_read(rewrite, parameters or {})


def _compact(op: ops.Operator, limit: int = 72) -> str:
    text = format_compact(op)
    return text if len(text) <= limit else text[: limit - 3] + "..."
