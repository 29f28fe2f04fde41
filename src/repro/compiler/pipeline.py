"""End-to-end query compilation: the paper's four-step workflow (§4).

``compile_query`` runs text → AST → GRA → NRA → FRA → optimised FRA and
returns a :class:`CompiledQuery` that keeps every intermediate stage for
introspection (EXPLAIN, the compilation-pipeline tests, and the paper's
worked example E2).  Step (4) — building the incremental view — is done by
:mod:`repro.rete` from ``CompiledQuery.plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import ops
from ..algebra.fra import check_incremental_fragment, validate_fra
from ..algebra.gra import validate_gra
from ..algebra.nra import validate_nra
from ..algebra.printer import format_plan
from ..cypher import ast
from ..cypher.parser import UnionQuery, parse
from ..errors import CypherSemanticError, UnsupportedForIncrementalError
from .costopt import reorder_joins
from .cypher_to_gra import compile_to_gra
from .gra_to_nra import lower_to_nra
from .nra_to_fra import flatten_to_fra
from .optimizer import optimize, prune_unused_path_aliases
from .stats import GraphStatistics


@dataclass(frozen=True)
class CompiledQuery:
    """A query lowered through every stage of the paper's pipeline."""

    text: str
    syntax: ast.Query | UnionQuery
    gra: ops.Operator
    nra: ops.Operator
    fra: ops.Operator
    plan: ops.Operator  # optimised FRA — what engines execute
    incremental_reason: str | None = field(default=None)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.plan.schema.names

    @property
    def is_incremental(self) -> bool:
        """Whether the query falls in the maintainable fragment."""
        return self.incremental_reason is None

    def require_incremental(self) -> None:
        if self.incremental_reason is not None:
            raise UnsupportedForIncrementalError(self.incremental_reason)

    def explain(self) -> str:
        """Multi-stage plan rendering (the paper's compilation steps)."""
        sections = [
            ("GRA (step 1: openCypher → graph relational algebra)", self.gra),
            ("NRA (step 2: expands → joins, explicit unnest)", self.nra),
            ("FRA (step 3: schema inference / property pushdown)", self.fra),
            ("Physical plan (optimised FRA)", self.plan),
        ]
        parts = [f"Query: {self.text.strip()}"]
        for title, plan in sections:
            # the physical plan is what runs: show the code generated for it
            rendered = format_plan(plan, sources=plan is self.plan)
            parts.append(f"\n== {title} ==\n{rendered}")
        if self.incremental_reason is not None:
            parts.append(
                f"\nIncremental registration: UNSUPPORTED ({self.incremental_reason})"
            )
        else:
            parts.append("\nIncremental registration: supported")
        return "\n".join(parts)


def compile_query(
    text: str, statistics: "GraphStatistics | None" = None
) -> CompiledQuery:
    """Compile *text* through GRA → NRA → FRA, validating each stage.

    With *statistics* (a :class:`~repro.compiler.stats.GraphStatistics`
    snapshot) the physical plan additionally gets cost-based join ordering
    (ablation E13); without, join order follows the query's syntactic
    pattern order.
    """
    return compile_syntax(text, parse(text), statistics)


def compile_syntax(
    text: str,
    syntax: ast.Query | ast.UpdatingQuery | UnionQuery,
    statistics: "GraphStatistics | None" = None,
) -> CompiledQuery:
    """:func:`compile_query` for *syntax*, already parsed from *text*."""
    if isinstance(syntax, ast.UpdatingQuery):
        raise CypherSemanticError(
            "updating queries (CREATE/DELETE/SET/REMOVE/MERGE) are executed "
            "directly, not compiled to algebra; use QueryEngine.execute()"
        )
    gra = prune_unused_path_aliases(compile_to_gra(syntax))
    validate_gra(gra)
    nra = lower_to_nra(gra)
    validate_nra(nra)
    fra = flatten_to_fra(nra)
    validate_fra(fra)
    plan = optimize(fra)
    if statistics is not None:
        # re-run selection pushdown: the new join shape may admit deeper σ
        plan = optimize(reorder_joins(plan, statistics))
    validate_fra(plan)
    reason: str | None = None
    try:
        check_incremental_fragment(plan)
    except UnsupportedForIncrementalError as exc:
        reason = str(exc)
    return CompiledQuery(
        text=text,
        syntax=syntax,
        gra=gra,
        nra=nra,
        fra=fra,
        plan=plan,
        incremental_reason=reason,
    )
