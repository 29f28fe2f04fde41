"""Pretty-printer for algebra trees using the paper's notation.

``format_plan`` renders an indented tree; ``format_compact`` renders a
single-line nested expression close to the paper's formulas, e.g.::

    π[p, t] σ[(c.lang = p.lang)] (©(p:Post{lang}) ⋈* ⇑(p)-[:REPLY]->(c))
"""

from __future__ import annotations

from ..cypher.unparser import unparse_expr
from . import ops
from .expressions import compile_predicate, compile_projection


def _hops(min_hops: int, max_hops: int | None) -> str:
    if min_hops == 1 and max_hops is None:
        return "*"
    if max_hops is None:
        return f"*{min_hops}.."
    if min_hops == max_hops:
        return f"*{min_hops}"
    return f"*{min_hops}..{max_hops}"


def _projections(projections: tuple[ops.PropertyProjection, ...], subject: str) -> str:
    keys = [
        p.key if p.kind == "property" else p.kind
        for p in projections
        if p.subject == subject
    ]
    return "{" + ",".join(keys) + "}" if keys else ""


def format_label(op: ops.Operator) -> str:
    """One operator's own label, without its children (``σ[...]``, ``δ``)."""
    if isinstance(op, ops.GetVertices):
        labels = "".join(f":{l}" for l in op.labels)
        return f"©({op.var}{labels}{_projections(op.projections, op.var)})"
    if isinstance(op, ops.GetEdges):
        src_labels = "".join(f":{l}" for l in op.src_labels)
        tgt_labels = "".join(f":{l}" for l in op.tgt_labels)
        types = ":" + "|".join(op.types) if op.types else ""
        arrow = "->" if op.directed else "-"
        return (
            f"⇑({op.src}{src_labels}{_projections(op.projections, op.src)})"
            f"-[{op.edge}{types}{_projections(op.projections, op.edge)}]"
            f"{arrow}({op.tgt}{tgt_labels}{_projections(op.projections, op.tgt)})"
        )
    if isinstance(op, ops.ExpandOut):
        types = ":" + "|".join(op.types) if op.types else ""
        hops = "" if not op.var_length else _hops(op.min_hops, op.max_hops)
        labels = "".join(f":{l}" for l in op.tgt_labels)
        arrow = {"out": "->", "in": "<-", "both": "-"}[op.direction]
        return f"↑({op.src})-[{op.edge}{types}{hops}]{arrow}({op.tgt}{labels})"
    if isinstance(op, ops.Select):
        return f"σ[{unparse_expr(op.predicate)}]"
    if isinstance(op, ops.Project):
        items = ", ".join(
            name if _trivial(expr, name) else f"{unparse_expr(expr)} AS {name}"
            for name, expr in op.items
        )
        return f"π[{items}]"
    if isinstance(op, ops.Dedup):
        return "δ"
    if isinstance(op, ops.Unwind):
        return f"ω[{unparse_expr(op.expression)} AS {op.alias}]"
    if isinstance(op, ops.PropertyUnnest):
        p = op.projection
        source = f"{p.subject}.{p.key}" if p.kind == "property" else p.output
        return f"µ[{source}→{p.output}]"
    if isinstance(op, ops.Aggregate):
        keys = ", ".join(name for name, _ in op.keys)
        aggs = ", ".join(
            f"{a.function}({'DISTINCT ' if a.distinct else ''}"
            f"{unparse_expr(a.argument) if a.argument is not None else '*'}) AS {a.output}"
            for a in op.aggregates
        )
        return f"γ[{keys} | {aggs}]"
    if isinstance(op, ops.Sort):
        items = ", ".join(
            unparse_expr(e) + ("" if asc else " DESC") for e, asc in op.items
        )
        return f"sort[{items}]"
    if isinstance(op, ops.Skip):
        return f"skip[{unparse_expr(op.count)}]"
    if isinstance(op, ops.Limit):
        return f"limit[{unparse_expr(op.count)}]"
    if isinstance(op, ops.Join):
        return "⋈" + (f"[{', '.join(op.common)}]" if op.common else "[×]")
    if isinstance(op, ops.AntiJoin):
        return f"▷[{', '.join(op.common)}]"
    if isinstance(op, ops.LeftOuterJoin):
        return f"⟕[{', '.join(op.common)}]"
    if isinstance(op, ops.Union):
        return "∪"
    if isinstance(op, ops.TransitiveJoin):
        path = f", {op.path_alias}=path" if op.path_alias else ""
        arrow = {"out": "→", "in": "←", "both": "↔"}[op.direction]
        return (
            f"⋈*[{op.source}{_hops(op.min_hops, op.max_hops)}"
            f"{arrow}{op.target}{path}]"
        )
    if isinstance(op, ops.Unit):
        return "unit"
    if isinstance(op, ops.ViewScan):
        return f"scan⟨{op.label}⟩"
    return type(op).__name__


def _trivial(expr, name: str) -> bool:
    from ..cypher import ast

    return isinstance(expr, ast.Variable) and expr.name == name


def format_plan(op: ops.Operator, indent: int = 0, sources: bool = False) -> str:
    """Indented multi-line rendering of the operator tree.

    With *sources* (flat plans only) each σ/π line is followed by the
    Python source generated for its predicate / items — the code its Rete
    node runs.
    """
    lines = ["  " * indent + format_label(op)]
    if sources and isinstance(op, (ops.Select, ops.Project)):
        schema = op.children[0].schema
        if isinstance(op, ops.Select):
            generated = compile_predicate(op.predicate, schema)
        else:
            generated = compile_projection([expr for _, expr in op.items], schema)
        margin = "  " * indent + "  │ "
        lines.extend(margin + line for line in generated.source.splitlines())
    for child in op.children:
        lines.append(format_plan(child, indent + 1, sources))
    return "\n".join(lines)


def format_compact(op: ops.Operator) -> str:
    """Single-line rendering close to the paper's formulas."""
    label = format_label(op)
    if not op.children:
        return label
    if isinstance(op, (ops.Join, ops.LeftOuterJoin, ops.AntiJoin, ops.Union)):
        left, right = op.children
        symbol = {"Join": "⋈", "LeftOuterJoin": "⟕", "AntiJoin": "▷", "Union": "∪"}[
            type(op).__name__
        ]
        return f"({format_compact(left)} {symbol} {format_compact(right)})"
    if isinstance(op, ops.TransitiveJoin):
        left, edges = op.children
        return f"({format_compact(left)} {label} {format_compact(edges)})"
    inner = " ".join(format_compact(c) for c in op.children)
    return f"{label} ({inner})" if len(op.children) == 1 else f"{label} ({inner})"
