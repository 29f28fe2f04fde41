"""The view catalog: answering one-shot reads from view roots' listings.

The rule is one sentence: ``evaluate()`` is answered from a view if and
only if its plan is a *listing read* over a live view root, and everything
else is recomputed by the interpreter (:meth:`repro.api.QueryEngine.evaluate`).
A listing read is the root itself, or the root under at most one σ (its
predicate a function of the row alone), identity π and δ, optionally
topped by an ``ORDER BY`` on bare columns and ``SKIP`` / ``LIMIT``.  It is
served as a slice of a listing the root's production node maintains for
that spec (see :meth:`ViewCatalog.listing_read` and
:meth:`~repro.rete.nodes.production.ProductionNode.listing`): it costs the
rows changed since that listing's last read plus the slice, with no bag
copy, no interpreter run and no sort.  The root itself is the empty spec,
the canonical listing.

:class:`ViewCatalog` indexes every live view's root under the key the
sharing layer keys subplans by (:func:`~repro.rete.sharing.subplan_cache_key`:
the alpha-equivalent fingerprint plus resolved bindings), so matching is
one walk down the read's chain with a dict probe per step.

Consistency rules (each one differentially tested):

* inside an open batch / transaction window the graph is ahead of the
  networks, so the catalog declines and evaluation falls back to the
  graph — snapshot reads are never served stale;
* a detached view leaves the root index immediately (the engine notifies
  the catalog before ``detach()`` returns);
* a parameterised root matches only under equal, type-exact bindings;
* every production holds the bag the interpreter computes for its plan —
  a ⋈* included, which keeps one row per trail, as the interpreter does —
  so its listings list what recomputation lists.

The match, with the listing spec it implies, is memoised per (compiled
query, type-exact parameter bindings) and the memo is cleared on every
view register/detach/lift event — the only points where what the walk can
see changes.
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
from ..algebra.printer import format_label
from ..algebra.schema import Schema
from ..cypher import ast
from ..errors import InvalidValueError, ReproError
from ..eval.interpreter import checked_count
from ..eval.results import ResultTable
from ..rete.nodes.production import ListingSpec
from ..rete.sharing import binding_key, subplan_cache_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compiler.pipeline import CompiledQuery
    from ..rete.engine import IncrementalEngine, View
    from ..rete.nodes.production import ProductionNode

#: match-memo entries kept before the memo is cleared wholesale
MATCH_MEMO_LIMIT = 1024


@dataclass
class AnswerStats:
    """Counters for the ablation report and EXPLAIN output."""

    queries: int = 0  # try_answer calls
    answered: int = 0  # served from a view root's listing
    exact: int = 0  # the whole plan was a view root
    residual: int = 0  # σ/δ/ORDER BY/SKIP/LIMIT over a root: a listing slice
    fallbacks: int = 0  # recomputed (no root / stale / predicate raised)
    stale_declines: int = 0  # fallbacks forced by an open batch window
    memo_hits: int = 0  # matches (hits and misses) served from the memo

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass(frozen=True)
class ListingRead:
    """A plan served as a slice of one view root's maintained listing."""

    view: "View"
    production: "ProductionNode"
    #: the subtree of the read's plan that the view's root materialises
    root: ops.Operator
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
        raised (recomputation then meets the error itself)."""
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


def _identity(op: ops.Project) -> bool:
    """Whether π *op* passes each row through unchanged."""
    names = [e.name if isinstance(e, ast.Variable) else None for _, e in op.items]
    return names == list(op.children[0].schema.names)


class ViewCatalog:
    """Fingerprint-indexed registry of the live views' roots.

    Owned by :class:`~repro.api.QueryEngine`; subscribes to the
    incremental engine's view lifecycle so the root index tracks
    register/detach exactly.
    """

    def __init__(self, engine: "IncrementalEngine"):
        self._engine = engine
        #: catalog key → views materialising exactly that plan (FIFO serve)
        self._roots: dict[tuple, list["View"]] = {}
        self._root_keys: dict[int, tuple] = {}  # id(view) → its key
        #: (id(compiled), binding keys) → (compiled, match or None)
        self._memo: dict[tuple, tuple["CompiledQuery", ListingRead | None]] = {}
        self.stats = AnswerStats()
        engine.subscribe_views(self._on_view_event)
        for view in engine.views:
            self._index_view(view)

    # -- lifecycle ----------------------------------------------------------

    def _on_view_event(self, phase: str, view: "View") -> None:
        self._memo.clear()
        if phase == "register":
            self._index_view(view)
        elif phase == "detach":
            self._drop_view(view)
        # "lift": same plan and production, only the nodes below changed

    def _index_view(self, view: "View") -> None:
        key = subplan_cache_key(view.compiled.plan, view.network.ctx.parameters)
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

    def listing_read(
        self, plan: ops.Operator, parameters: Mapping[str, Any]
    ) -> ListingRead | None:
        """How a live view root's listings serve *plan*, or ``None``.

        One walk down the read's chain: ``SKIP``/``LIMIT``, then an optional
        ``Sort`` on bare columns, then σ (at most one, its predicate a
        function of the row alone), identity π and δ, probing the root
        index at each step of the latter.  The first root found serves (the
        highest, so the least residual work); the σ, the δ and the sort
        items make the listing's spec, and the counts slice it.  A step of
        any other kind ends the walk with ``None``: recomputation serves it.
        """
        op = plan
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
        roots = self._roots
        select, distinct = None, False
        while True:
            key = subplan_cache_key(op, parameters)
            views = None if key is None else roots.get(key)
            if views:
                break
            if isinstance(op, ops.Dedup):
                distinct = True
            elif isinstance(op, ops.Select) and select is None:
                select = op
            elif not (isinstance(op, ops.Project) and _identity(op)):
                return None
            if not isinstance(op, ops.Project):
                labels.append(format_label(op))
            op = op.children[0]
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
        view = views[0]
        return ListingRead(
            view,
            view.network.production,
            op,
            ListingSpec(predicate, bindings, distinct, order),
            tuple(reversed(slices)),
            bool(slices) or bool(order),
            " ∘ ".join(labels),
        )

    # -- answering ----------------------------------------------------------

    def try_answer(
        self,
        compiled: "CompiledQuery",
        parameters: Mapping[str, Any] | None = None,
    ) -> ResultTable | None:
        """Answer *compiled* from a view root's listing, or ``None`` to fall
        back to full evaluation."""
        stats = self.stats
        stats.queries += 1
        if self._engine.pending_changes():
            # an open batch window: the graph is ahead of every memory
            stats.stale_declines += 1
            stats.fallbacks += 1
            return None
        read = self._match(compiled, parameters) if self._roots else None
        # a slice of a listing the view maintains: the very rows, in the
        # very order, the interpreter would derive from the root's bag
        table = (
            None
            if read is None
            else read.serve(compiled.plan.schema, parameters or {}, self._engine.graph)
        )
        if table is None:
            stats.fallbacks += 1
            return None
        stats.answered += 1
        if read.root is compiled.plan:
            stats.exact += 1
        else:
            stats.residual += 1
        return table

    def _match(
        self,
        compiled: "CompiledQuery",
        parameters: Mapping[str, Any] | None,
    ) -> ListingRead | None:
        """:meth:`listing_read` of *compiled*, memoised until the next view
        event."""
        try:
            bindings = sorted(
                (name, binding_key(value)) for name, value in (parameters or {}).items()
            )
        except (TypeError, InvalidValueError):
            # a binding with no type-exact key: match without the memo
            return self.listing_read(compiled.plan, parameters or {})
        key = (id(compiled), tuple(bindings))
        entry = self._memo.get(key)
        if entry is not None and entry[0] is compiled:
            self.stats.memo_hits += 1
            return entry[1]
        match = self.listing_read(compiled.plan, parameters or {})
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
        read = self.listing_read(compiled.plan, parameters or {})
        if read is None:
            return "no covering view root lists this read; full evaluation"
        source = f"view[{read.view.compiled.text.strip()}]"
        if read.root is compiled.plan:
            return f"exact hit: {source}\n  served from the view's maintained listing"
        return (
            f"residual hit: {source}\n"
            f"  served from the view's maintained listing: {read.description}"
        )
