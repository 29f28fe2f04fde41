"""View matching: find the highest-covering materialisation for a plan.

Given a one-shot query's optimised FRA plan, :func:`rewrite_plan` walks it
top-down asking the :class:`~repro.views.catalog.ViewCatalog` for a live
materialisation of each subtree.  Trying the *current* node before
recursing makes every hit the highest-covering one on its path: an exact
whole-plan hit wins over any interior hit, an interior hit close to the
root wins over its own descendants (less residual work, and the residual
operators above it — σ / π / γ / ω / sort-skip-limit and even join
towers — are evaluated over the served tuples).

What is deliberately *not* matched:

* base relations (© / ⇑ / unit) — reading them from a materialisation is
  no cheaper than the graph scan the interpreter would do, and the edges
  child of a transitive join must stay a literal ``GetEdges``;
* ordering operators (sort / skip / limit) — outside the maintainable
  fragment, they can never name a catalog entry themselves, but the walk
  descends through them, which is exactly how a top-k query gets answered
  as a small sort over a maintained view;
* anything whose subtree mentions a parameter bound differently (or left
  unbound) relative to the materialisation — the catalog key pairs the
  structural fingerprint with resolved bindings, so a mismatch is simply
  a key miss here and evaluation falls back to the graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from ..algebra import ops
from ..compiler.optimizer import lifted_plan
from .rewriter import RewriteResult, make_view_scan, rebuild_residual

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compiler.pipeline import CompiledQuery
    from .catalog import ViewCatalog

#: operators the walk descends through without a catalog probe
_ORDERING = (ops.Sort, ops.Skip, ops.Limit)
#: leaves the walk never replaces
_BASE = (ops.Unit, ops.GetVertices, ops.GetEdges, ops.ViewScan)


def rewrite_plan(
    catalog: "ViewCatalog",
    plan: ops.Operator,
    parameters: Mapping[str, Any] | None,
) -> RewriteResult | None:
    """Splice catalog hits into *plan*; ``None`` when nothing matched."""
    parameters = parameters or {}
    sources: list = []

    def visit(op: ops.Operator) -> ops.Operator:
        if isinstance(op, _BASE):
            return op
        if not isinstance(op, _ORDERING):
            source = catalog.lookup(op, parameters)
            if source is not None:
                sources.append(source)
                return make_view_scan(op, source)
        if isinstance(op, ops.TransitiveJoin):
            # the edges child is structural (must stay a GetEdges)
            children = [visit(op.children[0]), op.children[1]]
        else:
            children = [visit(child) for child in op.children]
        return rebuild_residual(op, children)

    rewritten = visit(plan)
    if not sources:
        return None
    return RewriteResult(rewritten, tuple(sources))


def rewrite_query(
    catalog: "ViewCatalog",
    compiled: "CompiledQuery",
    parameters: Mapping[str, Any] | None,
) -> RewriteResult | None:
    """Match a whole compiled query, probing both plan granularities.

    The optimised plan is probed first (root hits and exact-binding
    subplans key on that shape).  Once a parameterised query's shape has
    had a second live binding, its maintained selections live under
    *lifted* shapes — the σ hoisted above its binding-free core, the form
    such views are built in — so on a miss the equivalent lifted plan is
    probed too, which is how a one-shot per-user query gets served from
    the shared core's partition for its binding.
    """
    rewrite = rewrite_plan(catalog, compiled.plan, parameters)
    if rewrite is not None:
        return rewrite
    lifted = lifted_plan(compiled)
    if lifted is not compiled.plan:
        return rewrite_plan(catalog, lifted, parameters)
    return None
