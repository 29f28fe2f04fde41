"""Plan rewriting: splice materialised scans under residual operators.

Once the matcher has located a catalog entry covering a subtree, the
rewriter replaces that subtree with a :class:`~repro.algebra.ops.ViewScan`
leaf reading the live materialisation, and rebuilds the residual operators
(σ / π / δ / ω / γ / joins / sort-skip-limit) unchanged on top.  The
spliced plan is handed straight to the pull interpreter — it never
re-enters the compiler, so ``ViewScan`` stays invisible to the algebra
stages and their validators.

Positional soundness: the catalog key is the canonical *alpha-equivalent*
fingerprint, and alpha-equivalent FRA subtrees produce identical tuple
layouts by construction (schema positions, not names — the same invariant
cross-view subplan sharing relies on).  The ``ViewScan`` therefore carries
the **query's** subtree schema while serving the **materialisation's**
tuples: names may differ, positions and kinds cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..algebra import ops
from ..compiler.treeutil import rebuild

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .catalog import MaterializedSource


@dataclass(frozen=True)
class RewriteResult:
    """A one-shot plan with materialised scans spliced in."""

    plan: ops.Operator
    sources: tuple[MaterializedSource, ...]

    @property
    def exact(self) -> bool:
        """Whole plan served by one materialisation, no residual work."""
        return isinstance(self.plan, ops.ViewScan)


def make_view_scan(op: ops.Operator, source: MaterializedSource) -> ops.ViewScan:
    """A scan leaf standing in for *op*'s subtree, fed by *source*."""
    production = source.production
    listing = None if production is None else production.sorted_rows
    return ops.ViewScan(op.schema, source.fetch, source.description, listing)


def rebuild_residual(
    op: ops.Operator, children: list[ops.Operator]
) -> ops.Operator:
    """Reconstruct one residual operator over (possibly spliced) children.

    Delegates to the compiler's tree rebuilder: every residual operator
    recomputes its schema from the new children, and a ``ViewScan`` child
    carries the schema of the subtree it replaced, so the residual tower
    keeps its exact original shape.
    """
    return rebuild(op, children)
