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

Read cost: an exact hit on a view root returns the production node's
maintained canonical listing (O(changes since the last read), see
:meth:`~repro.rete.nodes.production.ProductionNode.sorted_rows`) with no
interpreter run; ``ORDER BY`` / ``SKIP`` / ``LIMIT`` directly over a root
sorts that listing; any other residual reads a fresh copy of the bag.  The
match itself is memoised per (compiled query, type-exact parameter
bindings) and the memo is cleared on every view register/detach event —
the only points where what :meth:`ViewCatalog.lookup` can see changes
(``prune()`` and detached-LRU eviction run inside detach).  A memoised read
therefore does not refresh a retained subplan's LRU recency; the first
read after each lifecycle event does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..algebra import ops
from ..algebra.printer import format_compact
from ..errors import InvalidValueError
from ..eval.interpreter import Interpreter
from ..eval.results import ResultTable
from ..rete.deltas import as_row_delta
from ..rete.sharing import SharedSubplanLayer, binding_key, subplan_cache_key
from .matcher import rewrite_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compiler.pipeline import CompiledQuery
    from ..rete.engine import IncrementalEngine, View
    from .rewriter import RewriteResult

Bag = dict[tuple, int]

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
    #: view roots only: returns the contents expanded in canonical order,
    #: as a fresh list (the production node's maintained listing)
    listing: Callable[[], list[tuple]] | None = None


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

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


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
        #: (id(compiled), binding keys) → (compiled, rewrite or None)
        self._memo: dict[tuple, tuple["CompiledQuery", "RewriteResult | None"]] = {}
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
                listing=production.sorted_rows,
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
        rewrite = self._match(compiled, parameters)
        if rewrite is None:
            self.stats.fallbacks += 1
            return None
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
        listing = rewrite.plan.listing if rewrite.exact else None
        if listing is not None:
            # the view's maintained listing is the canonical expansion of
            # the very bag the interpreter would read: nothing to re-derive
            self.stats.listing_answers += 1
            return ResultTable(
                compiled.plan.schema,
                listing(),
                canonical=True,
                graph=self._engine.graph,
            )
        return Interpreter(self._engine.graph, parameters).run(rewrite.plan)

    def _match(
        self,
        compiled: "CompiledQuery",
        parameters: Mapping[str, Any] | None,
    ) -> "RewriteResult | None":
        """:func:`rewrite_query`, memoised until the next view event."""
        try:
            bindings = sorted(
                (name, binding_key(value)) for name, value in (parameters or {}).items()
            )
        except (TypeError, InvalidValueError):
            # a binding with no type-exact key: match without the memo
            return rewrite_query(self, compiled, parameters)
        key = (id(compiled), tuple(bindings))
        entry = self._memo.get(key)
        if entry is not None and entry[0] is compiled:
            self.stats.memo_hits += 1
            return entry[1]
        rewrite = rewrite_query(self, compiled, parameters)
        if len(self._memo) >= MATCH_MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = (compiled, rewrite)
        return rewrite

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
        rewrite = rewrite_query(self, compiled, parameters)
        if rewrite is None:
            return "no covering view or shared subplan; full evaluation"
        lines = []
        if rewrite.exact:
            lines.append(f"exact hit: {rewrite.sources[0].description}")
            if rewrite.plan.listing is not None:
                lines.append("  served from the view's maintained listing")
        else:
            lines.append(
                f"containment hit: residual plan over "
                f"{len(rewrite.sources)} materialised source(s)"
            )
            for source in rewrite.sources:
                lines.append(f"  - {source.description}")
        return "\n".join(lines)


def _compact(op: ops.Operator, limit: int = 72) -> str:
    text = format_compact(op)
    return text if len(text) <= limit else text[: limit - 3] + "..."
