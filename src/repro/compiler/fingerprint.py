"""Canonical fingerprints for FRA subtrees (cross-view subplan sharing).

Two views that both compute ``σ(⋈(©(:Post), ⇑[:REPLY]))`` should pay for
that subnetwork **once** — the paper's engine lineage (ingraph, Viatra,
refs [31, 33]) shares whole Rete subnetworks between queries, not just
base-relation inputs.  The sharing decision needs an equality notion for
subplans that is *structural modulo variable renaming*: tuple layouts are
positional, so ``MATCH (p:Post)-[:REPLY]->(c:Comm)`` and
``MATCH (x:Post)-[:REPLY]->(y:Comm)`` build byte-identical dataflow nodes
even though every variable differs.

:func:`fingerprint` computes that notion as a hashable canonical tree:

* variable references are replaced by their *schema position* in the
  operator's input (alpha-equivalence — names never appear),
* output attribute names of π / γ / ω are dropped (they only feed
  downstream references, which are themselves canonicalised by position),
* label/type *sets* are sorted (``©(:A:B)`` ≡ ``©(:B:A)``),
* pushed-down projections keep their order (they fix the tuple layout)
  but are keyed by role/kind/key, not by variable,
* query parameters stay **symbolic** (``$min`` fingerprints as its name);
  whether two views' bindings for ``$min`` actually agree is decided by
  the sharing layer, which pairs the fingerprint with the resolved
  bindings of exactly the parameters the subtree mentions.

:func:`generalized_fingerprint` abstracts one step further for the
cross-binding sharing tier: parameter *names* become first-occurrence
positions (``σ[x > $min]`` ≡ ``σ[x > $lo]``), with the subtree's own
names recorded in position order so bindings translate across views.

Anything the canonicaliser does not understand (an unknown operator, an
unhashable literal) makes the subtree — and therefore every ancestor —
unshareable; :func:`fingerprint` returns ``None`` and the network builder
falls back to a private node.  That keeps sharing a pure optimisation:
opting out is always safe.

Fingerprints are **memoised per operator** (operators are immutable, so
the cached value can never go stale): each subtree is canonicalised once,
its parents embed the cached child structures, and repeated callers —
``ReteNetwork._build`` asking per level, the view catalog asking per
step of a read's chain — pay a dict-free attribute read instead of re-walking the
subtree, turning the total cost per plan from O(depth·size) into O(size).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

from ..algebra import ops
from ..algebra.schema import Schema
from ..cypher import ast
from ..errors import CompilerError


class _Unfingerprintable(Exception):
    """Internal: this subtree cannot participate in subplan sharing."""


class _ParamTag:
    """Singleton head of parameter leaves in canonical structures.

    A plain string head could collide with user data (a sorted label/type
    tuple whose first element happens to be that string); an identity
    singleton cannot appear in any canonicalised field, so parameter
    leaves stay unambiguous for :func:`generalized_fingerprint`.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "$"


PARAM_TAG = _ParamTag()


@dataclass(frozen=True, slots=True)
class SubplanFingerprint:
    """A canonical, hashable identity for one FRA subtree.

    ``structure`` is the alpha-equivalent canonical tree; ``parameters``
    names every ``$param`` the subtree mentions, so the sharing layer can
    refuse to share across differing bindings.
    """

    structure: tuple
    parameters: frozenset[str]


@dataclass(frozen=True, slots=True)
class GeneralizedFingerprint:
    """A fingerprint further canonicalised over parameter *names*.

    The resolved :class:`SubplanFingerprint` keeps parameters symbolic but
    name-sensitive (``σ[x > $min]`` ≢ ``σ[x > $lo]``).  For cross-binding
    sharing the name is as irrelevant as the binding: two views asking the
    same shape under any parameter name and any binding should feed from
    one binding-indexed node.  Here every ``(PARAM_TAG, name)`` leaf is
    replaced by its *first-occurrence position* in a deterministic walk of
    the canonical structure (de Bruijn-style), and ``param_order`` records
    this subtree's own names in exactly that position order — which is how
    a probing view translates *its* bindings into the position-aligned
    partition key (and how the node owner maps positions back to the
    creator's names for evaluation).
    """

    structure: tuple
    param_order: tuple[str, ...]


def fingerprint(op: ops.Operator) -> SubplanFingerprint | None:
    """Canonical fingerprint of *op*'s subtree, or ``None`` if unshareable.

    Memoised on the operator itself (``op._fingerprint``); children are
    fingerprinted through this entry point too, so one pass over a fresh
    plan caches every subtree bottom-up.
    """
    try:
        return op._fingerprint
    except AttributeError:
        pass
    parameters: set[str] = set()
    result: SubplanFingerprint | None
    try:
        structure = _fp(op, parameters)
    except _Unfingerprintable:
        result = None
    else:
        result = SubplanFingerprint(structure, frozenset(parameters))
    object.__setattr__(op, "_fingerprint", result)
    return result


def generalized_fingerprint(op: ops.Operator) -> GeneralizedFingerprint | None:
    """The parameter-generalised fingerprint of *op*'s subtree, or ``None``.

    ``None`` exactly when :func:`fingerprint` is ``None`` (unshareable) —
    generalisation never changes shareability, only the granularity the
    sharing cache can be probed at.  Memoised on the operator
    (``op._generalized``) like the resolved fingerprint.
    """
    try:
        return op._generalized
    except AttributeError:
        pass
    fp = fingerprint(op)
    result: GeneralizedFingerprint | None
    if fp is None:
        result = None
    else:
        order: list[str] = []
        structure = _generalize(fp.structure, order)
        result = GeneralizedFingerprint(structure, tuple(order))
    object.__setattr__(op, "_generalized", result)
    return result


def _generalize(structure, order: list[str]):
    """Replace ``(PARAM_TAG, name)`` leaves by first-occurrence positions."""
    if not isinstance(structure, tuple):
        return structure
    if len(structure) == 2 and structure[0] is PARAM_TAG:
        name = structure[1]
        try:
            position = order.index(name)
        except ValueError:
            position = len(order)
            order.append(name)
        return (PARAM_TAG, position)
    return tuple(_generalize(item, order) for item in structure)


def _child(op: ops.Operator, parameters: set[str]) -> tuple:
    """Memoised recursion step: a child's cached structure, or raise."""
    fp = fingerprint(op)
    if fp is None:
        raise _Unfingerprintable(type(op).__name__)
    parameters |= fp.parameters
    return fp.structure


# ---------------------------------------------------------------------------
# expression canonicalisation (names → schema positions)
# ---------------------------------------------------------------------------


def _canon_scalar(value) -> tuple:
    """A literal constant; the type tag keeps ``1`` and ``True`` apart."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return (type(value).__name__, value)
    raise _Unfingerprintable(f"literal {value!r}")


def _canon_expr(expr: ast.Expr, schema: Schema, parameters: set[str]) -> tuple:
    if isinstance(expr, ast.Variable):
        try:
            return ("var", schema.index_of(expr.name))
        except CompilerError:
            raise _Unfingerprintable(expr.name) from None
    if isinstance(expr, ast.Parameter):
        parameters.add(expr.name)
        return (PARAM_TAG, expr.name)
    if isinstance(expr, ast.Literal):
        return ("lit",) + _canon_scalar(expr.value)
    # Every other expression node is a frozen dataclass whose fields are
    # sub-expressions, tuples thereof, or plain scalars — canonicalise
    # generically so new AST nodes are covered without touching this file.
    parts = tuple(
        _canon_field(getattr(expr, field.name), schema, parameters)
        for field in dataclass_fields(expr)
    )
    return (type(expr).__name__, parts)


def _canon_field(value, schema: Schema, parameters: set[str]):
    if isinstance(value, ast.Expr):
        return _canon_expr(value, schema, parameters)
    if isinstance(value, tuple):
        return tuple(_canon_field(item, schema, parameters) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise _Unfingerprintable(f"field {value!r}")


# ---------------------------------------------------------------------------
# operator canonicalisation
# ---------------------------------------------------------------------------


def _fp(op: ops.Operator, parameters: set[str]) -> tuple:
    if isinstance(op, ops.Unit):
        return ("unit",)

    if isinstance(op, ops.GetVertices):
        return (
            "get-v",
            tuple(sorted(op.labels)),
            tuple((p.kind, p.key) for p in op.projections),
        )

    if isinstance(op, ops.GetEdges):
        return (
            "get-e",
            tuple(sorted(op.types)),
            tuple(sorted(op.src_labels)),
            tuple(sorted(op.tgt_labels)),
            op.directed,
            op.projection_roles(),
        )

    if isinstance(op, ops.Select):
        child = op.children[0]
        return (
            "select",
            _child(child, parameters),
            _canon_expr(op.predicate, child.schema, parameters),
        )

    if isinstance(op, ops.Project):
        child = op.children[0]
        return (
            "project",
            _child(child, parameters),
            tuple(
                _canon_expr(expr, child.schema, parameters) for _, expr in op.items
            ),
        )

    if isinstance(op, ops.Dedup):
        return ("dedup", _child(op.children[0], parameters))

    if isinstance(op, ops.Unwind):
        child = op.children[0]
        return (
            "unwind",
            _child(child, parameters),
            _canon_expr(op.expression, child.schema, parameters),
        )

    if isinstance(op, ops.Aggregate):
        child = op.children[0]
        return (
            "aggregate",
            _child(child, parameters),
            tuple(_canon_expr(expr, child.schema, parameters) for _, expr in op.keys),
            tuple(
                (
                    spec.function,
                    spec.distinct,
                    _canon_expr(spec.argument, child.schema, parameters)
                    if spec.argument is not None
                    else None,
                )
                for spec in op.aggregates
            ),
        )

    if isinstance(op, ops.Join):
        left, right = op.children
        return (
            "join",
            _child(left, parameters),
            _child(right, parameters),
            tuple(left.schema.index_of(n) for n in op.common),
            tuple(right.schema.index_of(n) for n in op.common),
            tuple(i for i, a in enumerate(right.schema) if a.name not in op.common),
        )

    if isinstance(op, ops.AntiJoin):
        left, right = op.children
        return (
            "antijoin",
            _child(left, parameters),
            _child(right, parameters),
            tuple(left.schema.index_of(n) for n in op.common),
            tuple(right.schema.index_of(n) for n in op.common),
        )

    if isinstance(op, ops.LeftOuterJoin):
        left, right = op.children
        return (
            "leftouterjoin",
            _child(left, parameters),
            _child(right, parameters),
            tuple(left.schema.index_of(n) for n in op.common),
            tuple(right.schema.index_of(n) for n in op.common),
            tuple(i for i, a in enumerate(right.schema) if a.name not in op.common),
        )

    if isinstance(op, ops.Union):
        return (
            "union",
            _child(op.children[0], parameters),
            _child(op.children[1], parameters),
            op.right_permutation,
        )

    if isinstance(op, ops.TransitiveJoin):
        left = op.children[0]
        return (
            "transitive",
            _child(left, parameters),
            _child(op.edges, parameters),
            left.schema.index_of(op.source),
            op.direction,
            op.min_hops,
            op.max_hops,
            op.path_alias is not None,
        )

    raise _Unfingerprintable(type(op).__name__)
