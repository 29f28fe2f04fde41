"""Abstract syntax tree for the openCypher fragment.

All nodes are immutable dataclasses.  Child expressions can be enumerated
generically with :func:`children`, which analysis passes (variable binding,
aggregate detection, property-access collection) use to walk trees without
per-node-type code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterator


class AstNode:
    """Marker base class for all AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr(AstNode):
    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class Literal(Expr):
    """A constant: int, float, str, bool or None.

    Equality is type-exact — ``1``, ``true``, ``1.0`` and ``0.0``/``-0.0``
    are four different constants although Python ``==`` conflates them —
    because expression ASTs key caches (generated code, fingerprints).
    """

    value: Any

    def __eq__(self, other: object) -> bool:
        if type(other) is not Literal:
            return NotImplemented
        a, b = self.value, other.value
        return type(a) is type(b) and a == b and repr(a) == repr(b)

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


@dataclass(frozen=True, slots=True)
class Parameter(Expr):
    """A ``$name`` query parameter."""

    name: str


@dataclass(frozen=True, slots=True)
class Variable(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Property(Expr):
    """Property access ``subject.key`` (subject is usually a Variable)."""

    subject: Expr
    key: str


@dataclass(frozen=True, slots=True)
class ListLiteral(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class MapLiteral(Expr):
    items: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True, slots=True)
class Subscript(Expr):
    """List indexing ``list[index]`` (negative indices supported)."""

    subject: Expr
    index: Expr


@dataclass(frozen=True, slots=True)
class Slice(Expr):
    """List slicing ``list[lo..hi]``; either bound may be absent."""

    subject: Expr
    low: Expr | None
    high: Expr | None


@dataclass(frozen=True, slots=True)
class FunctionCall(Expr):
    """A function or aggregate invocation.

    ``name`` is stored lower-cased; whether it is an aggregate is decided
    by the expression layer (see ``repro.algebra.expressions.AGGREGATES``).
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True, slots=True)
class CountStar(Expr):
    """``count(*)``."""


@dataclass(frozen=True, slots=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class BooleanOp(Expr):
    """N-ary AND / OR / XOR with at least two operands."""

    op: str  # "AND" | "OR" | "XOR"
    operands: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Comparison(Expr):
    """A (possibly chained) comparison ``a < b <= c``.

    ``operands`` has one more element than ``ops``; the chain is the AND of
    each adjacent comparison, evaluated under three-valued logic.
    """

    operands: tuple[Expr, ...]
    ops: tuple[str, ...]  # each of "=", "<>", "<", ">", "<=", ">="


@dataclass(frozen=True, slots=True)
class Arithmetic(Expr):
    op: str  # "+", "-", "*", "/", "%", "^"
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class UnaryMinus(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class In(Expr):
    item: Expr
    container: Expr


@dataclass(frozen=True, slots=True)
class StringPredicate(Expr):
    kind: str  # "STARTS WITH" | "ENDS WITH" | "CONTAINS"
    subject: Expr
    pattern: Expr


@dataclass(frozen=True, slots=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class CaseExpr(Expr):
    """Generic ``CASE WHEN p THEN v ... ELSE d END``.

    The *simple* form ``CASE subject WHEN v THEN ...`` is normalised by the
    parser into the generic form with equality comparisons.
    """

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None


@dataclass(frozen=True, slots=True)
class HasLabel(Expr):
    """Label predicate ``n:Label1:Label2`` used in WHERE position."""

    subject: Expr
    labels: tuple[str, ...]


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NodePattern(AstNode):
    variable: str | None
    labels: tuple[str, ...]
    properties: tuple[tuple[str, Expr], ...] = ()


#: Unbounded upper hop count for variable-length relationships.
UNBOUNDED = None


@dataclass(frozen=True, slots=True)
class RelationshipPattern(AstNode):
    variable: str | None
    types: tuple[str, ...]
    direction: str  # "out" (->), "in" (<-), "both" (undirected)
    var_length: bool = False
    min_hops: int = 1
    max_hops: int | None = 1  # None = unbounded
    properties: tuple[tuple[str, Expr], ...] = ()


@dataclass(frozen=True, slots=True)
class PatternPart(AstNode):
    """One comma-separated pattern: optionally named, alternating nodes/rels.

    ``elements`` is ``(node, rel, node, rel, ..., node)``.
    """

    variable: str | None  # the named-path variable, e.g. t = (...)
    elements: tuple[AstNode, ...]

    @property
    def nodes(self) -> tuple[NodePattern, ...]:
        return tuple(e for e in self.elements if isinstance(e, NodePattern))

    @property
    def relationships(self) -> tuple[RelationshipPattern, ...]:
        return tuple(e for e in self.elements if isinstance(e, RelationshipPattern))


@dataclass(frozen=True, slots=True)
class Pattern(AstNode):
    parts: tuple[PatternPart, ...]


# ---------------------------------------------------------------------------
# clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MatchClause(AstNode):
    pattern: Pattern
    optional: bool = False
    where: Expr | None = None


@dataclass(frozen=True, slots=True)
class UnwindClause(AstNode):
    expression: Expr
    alias: str


@dataclass(frozen=True, slots=True)
class ReturnItem(AstNode):
    expression: Expr
    alias: str | None = None


@dataclass(frozen=True, slots=True)
class OrderItem(AstNode):
    expression: Expr
    ascending: bool = True


@dataclass(frozen=True, slots=True)
class ProjectionBody(AstNode):
    """The shared shape of WITH and RETURN.

    ``star`` records a leading ``*`` item (``RETURN *`` / ``WITH *, x``);
    it expands to the in-scope variables at compile time, ahead of any
    explicit items."""

    items: tuple[ReturnItem, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    skip: Expr | None = None
    limit: Expr | None = None
    star: bool = False


@dataclass(frozen=True, slots=True)
class WithClause(AstNode):
    body: ProjectionBody
    where: Expr | None = None


@dataclass(frozen=True, slots=True)
class ReturnClause(AstNode):
    body: ProjectionBody


@dataclass(frozen=True, slots=True)
class Query(AstNode):
    """A single (non-UNION) query: reading clauses followed by RETURN."""

    clauses: tuple[AstNode, ...]  # MatchClause | UnwindClause | WithClause
    return_clause: ReturnClause


# ---------------------------------------------------------------------------
# updating clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CreateClause(AstNode):
    """``CREATE pattern`` — instantiate the pattern once per binding row."""

    pattern: Pattern


@dataclass(frozen=True, slots=True)
class DeleteClause(AstNode):
    """``[DETACH] DELETE expr, ...`` — each expression must yield a vertex,
    an edge, a path, or null."""

    expressions: tuple[Expr, ...]
    detach: bool = False


@dataclass(frozen=True, slots=True)
class SetProperty(AstNode):
    """``SET subject.key = value``."""

    target: Property
    value: Expr


@dataclass(frozen=True, slots=True)
class SetLabels(AstNode):
    """``SET variable:Label1:Label2``."""

    variable: str
    labels: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class SetProperties(AstNode):
    """``SET variable = map`` (replace) or ``SET variable += map`` (merge)."""

    variable: str
    value: Expr
    merge: bool = False


@dataclass(frozen=True, slots=True)
class SetClause(AstNode):
    items: tuple[AstNode, ...]  # SetProperty | SetLabels | SetProperties


@dataclass(frozen=True, slots=True)
class RemoveProperty(AstNode):
    """``REMOVE subject.key``."""

    target: Property


@dataclass(frozen=True, slots=True)
class RemoveLabels(AstNode):
    """``REMOVE variable:Label1:Label2``."""

    variable: str
    labels: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class RemoveClause(AstNode):
    items: tuple[AstNode, ...]  # RemoveProperty | RemoveLabels


@dataclass(frozen=True, slots=True)
class MergeClause(AstNode):
    """``MERGE part [ON CREATE SET ...] [ON MATCH SET ...]``.

    The pattern part is matched as a whole; if no match exists for the
    current bindings, the whole part is created (openCypher semantics).
    """

    part: PatternPart
    on_create: tuple[AstNode, ...] = ()  # SetClause items
    on_match: tuple[AstNode, ...] = ()


#: Clause types that mutate the graph.
UPDATING_CLAUSES = (CreateClause, DeleteClause, SetClause, RemoveClause, MergeClause)


@dataclass(frozen=True, slots=True)
class UpdatingQuery(AstNode):
    """A query containing at least one updating clause.

    ``clauses`` interleaves reading clauses (MATCH / UNWIND / WITH) with
    updating clauses in source order; ``return_clause`` is optional.
    """

    clauses: tuple[AstNode, ...]
    return_clause: ReturnClause | None = None


# ---------------------------------------------------------------------------
# generic traversal
# ---------------------------------------------------------------------------


def children(node: AstNode) -> Iterator[AstNode]:
    """Yield the direct AST-node children of *node* (depth 1)."""
    for field in fields(node):  # type: ignore[arg-type]
        value = getattr(node, field.name)
        if isinstance(value, AstNode):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, AstNode):
                    yield item
                elif isinstance(item, tuple):  # (key, expr) / (when, then) pairs
                    for sub in item:
                        if isinstance(sub, AstNode):
                            yield sub


def walk(node: AstNode) -> Iterator[AstNode]:
    """Yield *node* and all descendants, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


def free_variables(expr: Expr) -> set[str]:
    """Names of all :class:`Variable` nodes within *expr*."""
    return {n.name for n in walk(expr) if isinstance(n, Variable)}


def property_accesses(expr: Expr) -> set[tuple[str, str]]:
    """All ``(variable, key)`` pairs accessed as ``variable.key`` in *expr*."""
    out: set[tuple[str, str]] = set()
    for node in walk(expr):
        if isinstance(node, Property) and isinstance(node.subject, Variable):
            out.add((node.subject.name, node.key))
    return out
