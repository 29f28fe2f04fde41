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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..algebra import ops
from ..algebra.printer import format_compact
from ..eval.interpreter import Interpreter
from ..eval.results import ResultTable
from ..rete.deltas import as_row_delta
from ..rete.sharing import SharedSubplanLayer, subplan_cache_key
from .matcher import rewrite_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compiler.pipeline import CompiledQuery
    from ..rete.engine import IncrementalEngine, View

Bag = dict[tuple, int]


@dataclass(frozen=True)
class MaterializedSource:
    """One servable materialisation: where a spliced scan reads from."""

    #: returns a fresh ``row → multiplicity`` bag of the current contents
    fetch: Callable[[], Bag]
    #: human-readable origin, for EXPLAIN / the CLI
    description: str
    #: ``"view"`` (production-backed root) or ``"subplan"`` (shared node)
    kind: str


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
        self.stats = AnswerStats()
        engine.subscribe_views(self._on_view_event)
        for view in engine.views:
            self._index_view(view)

    # -- lifecycle ----------------------------------------------------------

    def _variant(self) -> tuple:
        return (self._engine.transitive_mode,)

    def _on_view_event(self, phase: str, view: "View") -> None:
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
            return MaterializedSource(
                fetch=view.network.production.multiset,
                description=f"view[{view.compiled.text.strip()}]",
                kind="view",
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
        rewrite = rewrite_query(self, compiled, parameters)
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
        return Interpreter(self._engine.graph, parameters).run(rewrite.plan)

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
