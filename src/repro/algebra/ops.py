"""Relational algebra operators for all three stages (GRA / NRA / FRA).

One operator vocabulary serves the whole lowering pipeline; the stage
modules (:mod:`.gra`, :mod:`.nra`, :mod:`.fra`) define which subset is legal
at each stage and validate trees against it.  This mirrors the paper's
presentation where GRA/NRA/FRA share σ, π, ⋈ and differ in the
graph-specific operators:

* GRA: ``get-vertices`` © and ``expand-out`` ↑ (§2),
* NRA: adds ``get-edges`` ⇑, unnest µ, transitive join ⋈* (§4 step 2),
* FRA: base operators carry pushed-down property projections
  (``{lang → pL}``, §4 step 3) and no unnest remains.

Every operator computes its output :class:`~.schema.Schema` eagerly at
construction, so schema errors surface where the tree is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cypher import ast
from ..errors import CompilerError
from .expressions import AggregateSpec
from .schema import AttrKind, Attribute, Schema

# ---------------------------------------------------------------------------
# pushed-down attribute naming (the paper's {key → attr} annotations)
# ---------------------------------------------------------------------------


def prop_attr(var: str, key: str) -> str:
    """Attribute name for a pushed-down property, e.g. ``p.lang``."""
    return f"{var}.{key}"


def labels_attr(var: str) -> str:
    return f"labels({var})"


def type_attr(var: str) -> str:
    return f"type({var})"


def properties_attr(var: str) -> str:
    return f"properties({var})"


@dataclass(frozen=True, slots=True)
class PropertyProjection:
    """One pushed-down column of a base operator.

    ``kind`` selects what is materialised for entity ``subject``:
    ``"property"`` (needs ``key``), ``"labels"``, ``"type"`` or
    ``"properties"`` (the full map).
    """

    subject: str
    kind: str
    key: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("property", "labels", "type", "properties"):
            raise CompilerError(f"bad projection kind {self.kind!r}")
        if (self.kind == "property") != (self.key is not None):
            raise CompilerError("'property' projections (and only those) need a key")

    @property
    def output(self) -> str:
        if self.kind == "property":
            return prop_attr(self.subject, self.key)  # type: ignore[arg-type]
        if self.kind == "labels":
            return labels_attr(self.subject)
        if self.kind == "type":
            return type_attr(self.subject)
        return properties_attr(self.subject)


def infer_kind(expr: ast.Expr, schema: Schema) -> AttrKind:
    """Result kind of a projection expression."""
    if isinstance(expr, ast.Variable) and expr.name in schema:
        return schema.kind_of(expr.name)
    if isinstance(expr, ast.FunctionCall) and expr.name == "_path":
        return AttrKind.PATH
    return AttrKind.VALUE


# ---------------------------------------------------------------------------
# operator base
# ---------------------------------------------------------------------------


class Operator:
    """Base class; subclasses set ``children`` and ``schema`` in __init__."""

    # ``_fingerprint`` lazily caches the canonical subplan fingerprint (or
    # None for unshareable subtrees); ``_generalized`` caches the
    # parameter-generalised variant (parameter names become occurrence
    # positions, for cross-binding sharing).  Operators are immutable, so
    # neither value can ever go stale.  Both are written by
    # repro.compiler.fingerprint via object.__setattr__ (the same escape
    # hatch _init/_set use).
    __slots__ = ("children", "schema", "_fingerprint", "_generalized")

    children: tuple["Operator", ...]
    schema: Schema

    def _init(self, children: tuple["Operator", ...], schema: Schema) -> None:
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "schema", schema)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    # Subclasses may add fields via object.__setattr__ in __init__.
    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        from .printer import format_plan

        return format_plan(self)


# ---------------------------------------------------------------------------
# nullary operators (base relations)
# ---------------------------------------------------------------------------


class GetVertices(Operator):
    """© — vertices with all of ``labels``, plus pushed-down columns."""

    __slots__ = ("var", "labels", "projections")

    def __init__(
        self,
        var: str,
        labels: tuple[str, ...] = (),
        projections: tuple[PropertyProjection, ...] = (),
    ):
        attrs = [Attribute(var, AttrKind.VERTEX)]
        for projection in projections:
            if projection.subject != var:
                raise CompilerError(
                    f"projection subject {projection.subject!r} is not {var!r}"
                )
            attrs.append(Attribute(projection.output, AttrKind.VALUE))
        self._init((), Schema(attrs))
        self._set(var=var, labels=tuple(labels), projections=tuple(projections))


class GetEdges(Operator):
    """⇑ — ``(src, edge, tgt)`` triples of the given types.

    With ``directed=False`` each edge contributes both orientations (a
    self-loop contributes one).  Endpoint label constraints are applied at
    the base relation (the paper's ``⇑(c:Comm)(p:Post)[:REPLY]`` form).
    """

    __slots__ = (
        "src",
        "edge",
        "tgt",
        "types",
        "src_labels",
        "tgt_labels",
        "directed",
        "projections",
    )

    def __init__(
        self,
        src: str,
        edge: str,
        tgt: str,
        types: tuple[str, ...] = (),
        src_labels: tuple[str, ...] = (),
        tgt_labels: tuple[str, ...] = (),
        directed: bool = True,
        projections: tuple[PropertyProjection, ...] = (),
    ):
        if len({src, edge, tgt}) != 3:
            raise CompilerError(
                f"get-edges variables must be distinct, got {(src, edge, tgt)}"
            )
        attrs = [
            Attribute(src, AttrKind.VERTEX),
            Attribute(edge, AttrKind.EDGE),
            Attribute(tgt, AttrKind.VERTEX),
        ]
        for projection in projections:
            if projection.subject not in (src, edge, tgt):
                raise CompilerError(
                    f"projection subject {projection.subject!r} not one of the "
                    f"get-edges variables {(src, edge, tgt)}"
                )
            attrs.append(Attribute(projection.output, AttrKind.VALUE))
        self._init((), Schema(attrs))
        self._set(
            src=src,
            edge=edge,
            tgt=tgt,
            types=tuple(types),
            src_labels=tuple(src_labels),
            tgt_labels=tuple(tgt_labels),
            directed=directed,
            projections=tuple(projections),
        )

    def projection_roles(self) -> tuple[tuple[str, str, str | None], ...]:
        """Pushed-down columns keyed by role, not by variable name.

        The canonical ``(role, kind, key)`` form every sharing key uses
        (input signatures, within-network caches, subplan fingerprints):
        tuple layout depends only on this, never on variable names.
        """
        return tuple(
            (
                "src"
                if p.subject == self.src
                else "edge"
                if p.subject == self.edge
                else "tgt",
                p.kind,
                p.key,
            )
            for p in self.projections
        )


# ---------------------------------------------------------------------------
# GRA-only: expand
# ---------------------------------------------------------------------------


class ExpandOut(Operator):
    """↑ — navigate from ``src`` to a new ``tgt`` over one edge (GRA only).

    ``direction`` ∈ {"out", "in", "both"}; var-length expansion is carried
    by ``min_hops``/``max_hops`` with ``max_hops=None`` meaning unbounded.
    For single-hop expansion the edge variable joins the schema; var-length
    expansions contribute a path attribute instead (named ``path_alias``),
    matching the paper's treatment of paths as atomic values.
    """

    __slots__ = (
        "src",
        "edge",
        "tgt",
        "types",
        "tgt_labels",
        "direction",
        "min_hops",
        "max_hops",
        "path_alias",
    )

    def __init__(
        self,
        child: Operator,
        src: str,
        edge: str,
        tgt: str,
        types: tuple[str, ...] = (),
        tgt_labels: tuple[str, ...] = (),
        direction: str = "out",
        min_hops: int = 1,
        max_hops: int | None = 1,
        path_alias: str | None = None,
    ):
        if src not in child.schema:
            raise CompilerError(f"expand source {src!r} not bound by child")
        if direction not in ("out", "in", "both"):
            raise CompilerError(f"bad direction {direction!r}")
        var_length = not (min_hops == 1 and max_hops == 1)
        attrs = list(child.schema)
        if not var_length:
            attrs.append(Attribute(edge, AttrKind.EDGE))
        attrs.append(Attribute(tgt, AttrKind.VERTEX))
        if var_length and path_alias is not None:
            attrs.append(Attribute(path_alias, AttrKind.PATH))
        self._init((child,), Schema(attrs))
        self._set(
            src=src,
            edge=edge,
            tgt=tgt,
            types=tuple(types),
            tgt_labels=tuple(tgt_labels),
            direction=direction,
            min_hops=min_hops,
            max_hops=max_hops,
            path_alias=path_alias,
        )

    @property
    def var_length(self) -> bool:
        return not (self.min_hops == 1 and self.max_hops == 1)


# ---------------------------------------------------------------------------
# unary operators
# ---------------------------------------------------------------------------


class Select(Operator):
    """σ — keep rows whose predicate evaluates to exactly ``true``."""

    __slots__ = ("predicate",)

    def __init__(self, child: Operator, predicate: ast.Expr):
        self._init((child,), child.schema)
        self._set(predicate=predicate)


class Project(Operator):
    """π — compute named output columns; defines the operator's schema."""

    __slots__ = ("items",)

    def __init__(self, child: Operator, items: tuple[tuple[str, ast.Expr], ...]):
        attrs = [
            Attribute(name, infer_kind(expr, child.schema)) for name, expr in items
        ]
        self._init((child,), Schema(attrs))
        self._set(items=tuple(items))


class Dedup(Operator):
    """δ — collapse bag multiplicities to one (DISTINCT)."""

    def __init__(self, child: Operator):
        self._init((child,), child.schema)


class Unwind(Operator):
    """ω — one output row per element of a list-valued expression."""

    __slots__ = ("expression", "alias")

    def __init__(self, child: Operator, expression: ast.Expr, alias: str):
        if alias in child.schema:
            raise CompilerError(f"UNWIND alias {alias!r} already bound")
        self._init(
            (child,),
            Schema(tuple(child.schema) + (Attribute(alias, AttrKind.VALUE),)),
        )
        self._set(expression=expression, alias=alias)


class PropertyUnnest(Operator):
    """µ — the paper's attribute-directed unnest (NRA only).

    ``µ_{c.lang→cL}`` in the paper; here the output attribute keeps the
    dotted name (``c.lang``).  The flattening pass removes these by pushing
    the projection into the base operators.
    """

    __slots__ = ("projection",)

    def __init__(self, child: Operator, projection: PropertyProjection):
        if projection.subject not in child.schema:
            raise CompilerError(
                f"unnest subject {projection.subject!r} not bound by child"
            )
        if projection.output in child.schema:
            raise CompilerError(f"unnest output {projection.output!r} already bound")
        self._init(
            (child,),
            Schema(
                tuple(child.schema) + (Attribute(projection.output, AttrKind.VALUE),)
            ),
        )
        self._set(projection=projection)


class Aggregate(Operator):
    """γ — grouping + incremental aggregate functions."""

    __slots__ = ("keys", "aggregates")

    def __init__(
        self,
        child: Operator,
        keys: tuple[tuple[str, ast.Expr], ...],
        aggregates: tuple[AggregateSpec, ...],
    ):
        attrs = [Attribute(n, infer_kind(e, child.schema)) for n, e in keys]
        attrs += [Attribute(a.output, AttrKind.VALUE) for a in aggregates]
        self._init((child,), Schema(attrs))
        self._set(keys=tuple(keys), aggregates=tuple(aggregates))


class Sort(Operator):
    """Order rows; outside the incrementally maintainable fragment."""

    __slots__ = ("items",)

    def __init__(self, child: Operator, items: tuple[tuple[ast.Expr, bool], ...]):
        self._init((child,), child.schema)
        self._set(items=tuple(items))


class Skip(Operator):
    __slots__ = ("count",)

    def __init__(self, child: Operator, count: ast.Expr):
        self._init((child,), child.schema)
        self._set(count=count)


class Limit(Operator):
    __slots__ = ("count",)

    def __init__(self, child: Operator, count: ast.Expr):
        self._init((child,), child.schema)
        self._set(count=count)


# ---------------------------------------------------------------------------
# binary operators
# ---------------------------------------------------------------------------


class Join(Operator):
    """⋈ — natural join on the attributes the two inputs share."""

    __slots__ = ("common",)

    def __init__(self, left: Operator, right: Operator):
        schema, common = left.schema.join_with(right.schema)
        self._init((left, right), schema)
        self._set(common=common)


class AntiJoin(Operator):
    """▷ — left rows with no natural-join partner on the right."""

    __slots__ = ("common",)

    def __init__(self, left: Operator, right: Operator):
        _, common = left.schema.join_with(right.schema)
        self._init((left, right), left.schema)
        self._set(common=common)


class LeftOuterJoin(Operator):
    """⟕ — natural left outer join (OPTIONAL MATCH); unmatched rows pad
    the right-only attributes with nulls."""

    __slots__ = ("common",)

    def __init__(self, left: Operator, right: Operator):
        schema, common = left.schema.join_with(right.schema)
        self._init((left, right), schema)
        self._set(common=common)


class Union(Operator):
    """∪ — bag union; ``all=False`` adds a dedup on top conceptually
    (the compiler inserts an explicit Dedup, keeping this operator pure)."""

    __slots__ = ("right_permutation",)

    def __init__(self, left: Operator, right: Operator):
        if set(left.schema.names) != set(right.schema.names):
            raise CompilerError(
                f"UNION inputs must share columns: {left.schema.names} vs "
                f"{right.schema.names}"
            )
        permutation = tuple(right.schema.index_of(n) for n in left.schema.names)
        for name in left.schema.names:
            if left.schema.kind_of(name) is not right.schema.kind_of(name):
                raise CompilerError(f"UNION column {name!r} has mismatched kinds")
        self._init((left, right), left.schema)
        self._set(right_permutation=permutation)


class TransitiveJoin(Operator):
    """⋈* — the paper's transitive join (§4 step 2).

    Joins the left input with the transitive closure of the ``edges`` base
    relation: for each left row, one output row per *trail* (edge-distinct
    walk) of length ``min_hops..max_hops`` starting at the row's ``source``
    vertex.  The trail's final vertex binds ``target`` (which must be fresh)
    and, when ``path_alias`` is set, the whole trail binds an atomic
    :class:`~repro.graph.values.PathValue`.

    Label and property constraints on the *final* vertex are expressed by a
    companion natural join with a :class:`GetVertices` on ``target`` (the
    compiler inserts it); intermediate hops stay unconstrained, matching
    Cypher's ``(p:Post)-[:REPLY*]->(c:Comm)``.
    """

    __slots__ = (
        "source",
        "target",
        "direction",
        "min_hops",
        "max_hops",
        "path_alias",
    )

    def __init__(
        self,
        left: Operator,
        edges: GetEdges,
        source: str,
        target: str,
        direction: str = "out",
        min_hops: int = 1,
        max_hops: int | None = None,
        path_alias: str | None = None,
    ):
        if source not in left.schema:
            raise CompilerError(f"transitive-join source {source!r} not bound")
        if target in left.schema:
            raise CompilerError(f"transitive-join target {target!r} already bound")
        if direction not in ("out", "in", "both"):
            raise CompilerError(f"bad direction {direction!r}")
        if min_hops < 0:
            raise CompilerError("min_hops must be >= 0")
        if edges.src_labels or edges.tgt_labels:
            raise CompilerError(
                "the edges relation of a transitive join must be label-free; "
                "constrain the final vertex with a companion get-vertices join"
            )
        if edges.projections:
            raise CompilerError(
                "the edges relation of a transitive join carries no projections"
            )
        attrs = list(left.schema) + [Attribute(target, AttrKind.VERTEX)]
        if path_alias is not None:
            attrs.append(Attribute(path_alias, AttrKind.PATH))
        self._init((left, edges), Schema(attrs))
        self._set(
            source=source,
            target=target,
            direction=direction,
            min_hops=min_hops,
            max_hops=max_hops,
            path_alias=path_alias,
        )

    @property
    def edges(self) -> GetEdges:
        return self.children[1]  # type: ignore[return-value]


class Unit(Operator):
    """The unit relation: one empty tuple.

    Source for pattern-free queries (``RETURN 1``, leading ``UNWIND``) and
    the left input of a leading ``OPTIONAL MATCH``.
    """

    def __init__(self) -> None:
        self._init((), Schema(()))
