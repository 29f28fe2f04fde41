"""Clause-by-clause execution of updating queries: prepared once, run per call.

An :class:`~repro.cypher.ast.UpdatingQuery` is *prepared* once: its
clauses are walked with their static schema (which depends only on the
statement, never on data) and each becomes a step, with its pattern
matchers and expressions compiled.  A *run* binds the parameters and
drives the steps over a binding table:

* reading clauses (MATCH / OPTIONAL MATCH / UNWIND / WITH) transform the
  table exactly as the read pipeline would,
* updating clauses (CREATE / DELETE / SET / REMOVE / MERGE) mutate the
  graph through its normal API — every write surfaces as change events
  that live incremental views consume,
* an optional final RETURN projects the table into a
  :class:`~repro.eval.results.ResultTable`.

A prepared statement holds no per-call state, so runs of one statement may
overlap — e.g. a view trigger that executes the statement whose writes
fired it.  Checks that depend only on the statement (duplicate projection
columns, CREATE/MERGE pattern shape, DELETE targets, UNWIND rebinding)
raise at preparation; checks a row triggers (an unbound or non-entity
SET/REMOVE target, a SET value naming an unknown variable) raise only when
a row reaches them, so a statement that matches nothing raises none.

The whole query runs inside a compensating transaction: an error midway
undoes all of the query's writes (and their effects on views).

Visibility rules follow openCypher: a clause sees the graph as left by the
*previous* clause; MERGE additionally sees its own per-row creations (so
``UNWIND [1,2] AS x MERGE (n:Tag)`` creates one vertex, not two).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..algebra.expressions import (
    AggregateSpec,
    CompiledExpr,
    EvalContext,
    compile_expr,
    contains_aggregate,
    is_aggregate_call,
)
from ..algebra.schema import AttrKind, Attribute, Schema
from ..cypher import ast
from ..cypher.unparser import unparse_expr
from ..errors import CypherSemanticError, EvaluationError, ReproError
from ..eval.interpreter import GraphResolver
from ..eval.results import ResultTable, canonical_order
from ..graph.graph import PropertyGraph
from ..graph.values import ListValue, MapValue, PathValue, order_key
from .matcher import PatternMatcher, check_no_bound_reuse_conflicts, pattern_bindings
from .summary import UpdateSummary

#: One prepared clause: ``step(rows, ctx, summary)`` returns the next rows.
Step = Callable[[list, EvalContext, UpdateSummary], list]
#: One prepared SET/REMOVE item: ``write(row, ctx, summary)``.
RowWrite = Callable[[tuple, EvalContext, UpdateSummary], None]
#: Compiled ``{key: expr}`` maps of a CREATE/MERGE pattern, per element id.
PropertyMaps = dict[int, list[tuple[str, CompiledExpr]]]


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of an updating query: counters plus the optional RETURN."""

    summary: UpdateSummary
    table: ResultTable | None = None

    def rows(self) -> list[tuple]:
        return self.table.rows() if self.table is not None else []


class PreparedUpdate:
    """An updating query prepared for *graph*; :meth:`run` executes it.

    Everything held here is determined by the statement: no parameters,
    evaluation context, summary or batch scope.  Matchers still consult
    the live graph (and its property indexes) when they expand a row.
    """

    def __init__(self, graph: PropertyGraph, query: ast.UpdatingQuery):
        self.graph = graph
        self.resolver = GraphResolver(graph)
        schema = Schema(())
        steps: list[Step] = []
        for clause in query.clauses:
            step, schema = self._prepare_clause(clause, schema)
            steps.append(step)
        self._steps = tuple(steps)
        self._returning: tuple[Step, Schema, bool] | None = None
        if query.return_clause is not None:
            body = query.return_clause.body
            step, schema = self._prepare_projection(body, None, schema, ordered=True)
            ordered = bool(body.order_by or body.skip or body.limit)
            self._returning = (step, schema, ordered)

    def run(
        self, parameters: Mapping[str, Any] | None = None, batcher: Any = None
    ) -> ExecutionResult:
        """Run atomically; returns counters and the RETURN table.

        *batcher* is an optional factory of a batch scope (e.g.
        ``IncrementalEngine.batch``): when set, the writes reach
        incremental views as one consolidated delta after the transaction
        commits, instead of one propagation per elementary write.

        When the graph is already inside a transaction — e.g. a view
        change-callback (trigger) issuing a follow-up write from within an
        enclosing updating query — the run *joins* that scope instead of
        nesting: a failure anywhere rolls back the outermost query and
        everything its triggers did.
        """
        ctx = EvalContext(dict(parameters or {}))
        summary = UpdateSummary()
        batch_scope = batcher() if batcher is not None else nullcontext()
        scope = (
            nullcontext() if self.graph.in_transaction else self.graph.transaction()
        )
        with batch_scope, scope:
            rows: list[tuple] = [()]
            for step in self._steps:
                rows = step(rows, ctx, summary)
            result_table = None
            if self._returning is not None:
                step, schema, ordered = self._returning
                result_table = ResultTable(
                    schema, step(rows, ctx, summary), ordered=ordered, graph=self.graph
                )
        return ExecutionResult(summary, result_table)

    # -- clause dispatch ------------------------------------------------------

    def _prepare_clause(
        self, clause: ast.AstNode, schema: Schema
    ) -> tuple[Step, Schema]:
        if isinstance(clause, ast.MatchClause):
            return self._prepare_match(clause, schema)
        if isinstance(clause, ast.UnwindClause):
            return self._prepare_unwind(clause, schema)
        if isinstance(clause, ast.WithClause):
            body = clause.body
            ordered = bool(body.order_by or body.skip or body.limit)
            return self._prepare_projection(body, clause.where, schema, ordered)
        if isinstance(clause, ast.CreateClause):
            return self._prepare_create(clause, schema)
        if isinstance(clause, ast.MergeClause):
            return self._prepare_merge(clause, schema)
        if isinstance(clause, ast.DeleteClause):
            return self._prepare_delete(clause, schema), schema
        if isinstance(clause, (ast.SetClause, ast.RemoveClause)):
            return _each_row(self._prepare_writes(clause.items, schema)), schema
        raise CypherSemanticError(
            f"unsupported clause in updating query: {type(clause).__name__}"
        )

    def _compile(self, expr: ast.Expr, schema: Schema) -> CompiledExpr:
        return compile_expr(expr, schema, self.resolver)

    def _compile_per_row(self, expr: ast.Expr, schema: Schema) -> CompiledExpr:
        """:meth:`_compile` for a SET value, which only a row reaching it
        ever evaluated: a compile error is raised then, not here."""
        try:
            return self._compile(expr, schema)
        except ReproError as exc:
            return _raising(type(exc), *exc.args)

    # -- reading clauses --------------------------------------------------------

    def _prepare_match(
        self, clause: ast.MatchClause, schema: Schema
    ) -> tuple[Step, Schema]:
        _check_bound_kinds(clause.pattern, schema)
        matcher = PatternMatcher(
            self.graph, clause.pattern, schema, self.resolver, clause.where
        )
        expand, optional = matcher.expand, clause.optional
        pad = (None,) * len(matcher.new_names)

        def match(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
            out: list[tuple] = []
            for row in rows:
                matched = False
                for extended in expand(row, ctx):
                    out.append(extended)
                    matched = True
                if optional and not matched:
                    out.append(row + pad)
            return out

        return match, matcher.output_schema

    def _prepare_unwind(
        self, clause: ast.UnwindClause, schema: Schema
    ) -> tuple[Step, Schema]:
        if clause.alias in schema:
            raise CypherSemanticError(f"variable {clause.alias!r} is already bound")
        fn = self._compile(clause.expression, schema)

        def unwind(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
            out: list[tuple] = []
            for row in rows:
                value = fn(row, ctx)
                if value is None:
                    continue
                for item in value if isinstance(value, ListValue) else (value,):
                    out.append(row + (item,))
            return out

        alias = Attribute(clause.alias, AttrKind.VALUE)
        return unwind, Schema(tuple(schema.attributes) + (alias,))

    # -- projection (WITH / RETURN) ------------------------------------------------

    def _prepare_projection(
        self,
        body: ast.ProjectionBody,
        where: ast.Expr | None,
        schema: Schema,
        ordered: bool,
    ) -> tuple[Step, Schema]:
        names: list[str] = []
        for item in body.items:
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expression, ast.Variable):
                names.append(item.expression.name)
            else:
                names.append(unparse_expr(item.expression))
        if len(set(names)) != len(names):
            raise CypherSemanticError(f"duplicate projection column in {names}")

        if any(contains_aggregate(i.expression) for i in body.items):
            project, projected = self._prepare_aggregate(body, names, schema)
        else:
            project, projected = self._prepare_plain(body, names, schema)
        distinct = body.distinct
        predicate = self._compile(where, projected) if where is not None else None
        keys = [
            (self._compile(item.expression, projected), not item.ascending)
            for item in reversed(body.order_by)
        ]
        skip, limit = (
            self._compile(bound, Schema(())) if bound is not None else None
            for bound in (body.skip, body.limit)
        )

        def projection(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
            rows = project(rows, ctx)
            if distinct:
                rows = list(dict.fromkeys(rows))
            if predicate is not None:
                rows = [r for r in rows if predicate(r, ctx) is True]
            if not ordered:
                return rows
            rows = canonical_order(rows)
            for fn, descending in keys:
                rows.sort(key=lambda r: order_key(fn(r, ctx)), reverse=descending)
            if skip is not None:
                rows = rows[_count_of(skip, ctx) :]
            if limit is not None:
                rows = rows[: _count_of(limit, ctx)]
            return rows

        return projection, projected

    def _prepare_plain(
        self, body: ast.ProjectionBody, names: list[str], schema: Schema
    ) -> tuple[Callable, Schema]:
        attributes = tuple(
            Attribute(name, _projection_kind(item.expression, schema))
            for name, item in zip(names, body.items)
        )
        fns = [self._compile(item.expression, schema) for item in body.items]

        def project(rows: list, ctx: EvalContext) -> list:
            return [tuple(fn(row, ctx) for fn in fns) for row in rows]

        return project, Schema(attributes)

    def _prepare_aggregate(
        self, body: ast.ProjectionBody, names: list[str], schema: Schema
    ) -> tuple[Callable, Schema]:
        group_items: list[tuple[int, ast.ReturnItem]] = []
        agg_items: list[tuple[int, ast.ReturnItem]] = []
        for position, item in enumerate(body.items):
            if contains_aggregate(item.expression):
                if not is_aggregate_call(item.expression):
                    raise CypherSemanticError(
                        "composite aggregate expressions are not supported in "
                        "updating queries; aggregate must be the whole item"
                    )
                agg_items.append((position, item))
            else:
                group_items.append((position, item))

        group_fns = [self._compile(item.expression, schema) for _, item in group_items]
        specs: list[AggregateSpec] = []
        for _, item in agg_items:
            expr = item.expression
            if isinstance(expr, ast.CountStar):
                specs.append(AggregateSpec("count", None, False, "out"))
            else:
                assert isinstance(expr, ast.FunctionCall)
                specs.append(
                    AggregateSpec(expr.name, expr.args[0], expr.distinct, "out")
                )
        argument_fns = [
            self._compile(spec.argument, schema) if spec.argument is not None else None
            for spec in specs
        ]

        attributes: list[Attribute | None] = [None] * len(body.items)
        for position, item in group_items:
            attributes[position] = Attribute(
                names[position], _projection_kind(item.expression, schema)
            )
        for position, __ in agg_items:
            attributes[position] = Attribute(names[position], AttrKind.VALUE)
        width = len(body.items)

        def project(rows: list, ctx: EvalContext) -> list:
            groups: dict[tuple, list] = {}
            for row in rows:
                key = tuple(fn(row, ctx) for fn in group_fns)
                aggregators = groups.get(key)
                if aggregators is None:
                    aggregators = [spec.make_aggregator() for spec in specs]
                    groups[key] = aggregators
                for aggregator, argument_fn in zip(aggregators, argument_fns):
                    value = argument_fn(row, ctx) if argument_fn else _ROW_MARKER
                    aggregator.insert(value, 1)
            if not groups and not group_items:
                groups[()] = [spec.make_aggregator() for spec in specs]
            out: list[tuple] = []
            for key, aggregators in groups.items():
                row: list[Any] = [None] * width
                for (position, __), value in zip(group_items, key):
                    row[position] = value
                for (position, __), aggregator in zip(agg_items, aggregators):
                    row[position] = aggregator.result()
                out.append(tuple(row))
            return out

        return project, Schema(tuple(a for a in attributes if a is not None))

    # -- CREATE -------------------------------------------------------------------

    def _prepare_create(
        self, clause: ast.CreateClause, schema: Schema
    ) -> tuple[Step, Schema]:
        _check_create_pattern(clause.pattern, schema)
        new_names, extended_schema = _extend(clause.pattern, schema)
        properties = self._compile_pattern_properties(clause.pattern, schema)
        names, parts, create_part = schema.names, clause.pattern.parts, self._create_part

        def create(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
            out: list[tuple] = []
            for row in rows:
                bindings = dict(zip(names, row))
                for part in parts:
                    create_part(part, bindings, row, properties, ctx, summary)
                out.append(row + tuple(bindings[name] for name in new_names))
            return out

        return create, extended_schema

    def _compile_pattern_properties(
        self, pattern: ast.Pattern, schema: Schema
    ) -> PropertyMaps:
        compiled: PropertyMaps = {}
        for part in pattern.parts:
            for element in part.elements:
                if element.properties:  # type: ignore[union-attr]
                    compiled[id(element)] = [
                        (key, self._compile(value, schema))
                        for key, value in element.properties  # type: ignore[union-attr]
                    ]
        return compiled

    def _create_part(
        self,
        part: ast.PatternPart,
        bindings: dict[str, Any],
        row: tuple,
        properties: PropertyMaps,
        ctx: EvalContext,
        summary: UpdateSummary,
    ) -> None:
        elements = part.elements
        vertices: list[int] = []
        edges: list[int] = []
        at = self._create_node(elements[0], bindings, row, properties, ctx, summary)
        vertices.append(at)
        position = 1
        while position < len(elements):
            relationship = elements[position]
            node = elements[position + 1]
            assert isinstance(relationship, ast.RelationshipPattern)
            end = self._create_node(node, bindings, row, properties, ctx, summary)
            values = _evaluate_properties(relationship, row, properties, ctx)
            if relationship.direction == "out":
                source, target = at, end
            else:
                source, target = end, at
            edge = self.graph.add_edge(
                source, target, relationship.types[0], properties=values
            )
            summary.relationships_created += 1
            summary.properties_set += len(values)
            if relationship.variable:
                bindings[relationship.variable] = edge
            edges.append(edge)
            vertices.append(end)
            at = end
            position += 2
        if part.variable:
            bindings[part.variable] = PathValue(tuple(vertices), tuple(edges))

    def _create_node(
        self,
        node: ast.AstNode,
        bindings: dict[str, Any],
        row: tuple,
        properties: PropertyMaps,
        ctx: EvalContext,
        summary: UpdateSummary,
    ) -> int:
        assert isinstance(node, ast.NodePattern)
        if node.variable and node.variable in bindings:
            existing = bindings[node.variable]
            if not isinstance(existing, int) or not self.graph.has_vertex(existing):
                raise EvaluationError(
                    f"variable {node.variable!r} is not a live vertex"
                )
            if node.labels or node.properties:
                raise CypherSemanticError(
                    f"bound variable {node.variable!r} cannot carry labels or "
                    "properties in CREATE/MERGE"
                )
            return existing
        values = _evaluate_properties(node, row, properties, ctx)
        vertex = self.graph.add_vertex(labels=node.labels, properties=values)
        summary.nodes_created += 1
        summary.properties_set += len(values)
        summary.labels_added += len(node.labels)
        if node.variable:
            bindings[node.variable] = vertex
        return vertex

    # -- MERGE --------------------------------------------------------------------

    def _prepare_merge(
        self, clause: ast.MergeClause, schema: Schema
    ) -> tuple[Step, Schema]:
        part = clause.part
        for element in part.elements:
            if isinstance(element, ast.RelationshipPattern) and element.var_length:
                raise CypherSemanticError(
                    "variable-length relationships are not allowed in MERGE"
                )
        pattern = ast.Pattern((part,))
        _check_create_pattern(pattern, schema)
        new_names, extended_schema = _extend(pattern, schema)
        properties = self._compile_pattern_properties(pattern, schema)
        # One matcher serves every row: expand() consults the live graph,
        # so each row's match sees earlier rows' creations (MERGE rule).
        matcher = PatternMatcher(self.graph, pattern, schema, self.resolver)
        on_match = self._prepare_writes(clause.on_match, extended_schema)
        on_create = self._prepare_writes(clause.on_create, extended_schema)
        names, create_part = schema.names, self._create_part

        def merge(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
            out: list[tuple] = []
            for row in rows:
                matches = list(matcher.expand(row, ctx))
                if matches:
                    for extended in matches:
                        for write in on_match:
                            write(extended, ctx, summary)
                        out.append(extended)
                else:
                    _reject_null_merge_properties(part, row, properties, ctx)
                    bindings = dict(zip(names, row))
                    create_part(part, bindings, row, properties, ctx, summary)
                    extended = row + tuple(bindings[name] for name in new_names)
                    for write in on_create:
                        write(extended, ctx, summary)
                    out.append(extended)
            return out

        return merge, extended_schema

    # -- DELETE -------------------------------------------------------------------

    def _prepare_delete(self, clause: ast.DeleteClause, schema: Schema) -> Step:
        targets = []  # (kind, column) of each DELETE variable
        for expression in clause.expressions:
            kind = _delete_kind(expression, schema)
            targets.append((kind, schema.index_of(expression.name)))
        graph, detach = self.graph, clause.detach

        def delete(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
            doomed_vertices: dict[int, None] = {}
            doomed_edges: dict[int, None] = {}
            for kind, position in targets:
                for row in rows:
                    value = row[position]
                    if value is None:
                        continue
                    if kind is AttrKind.PATH:
                        assert isinstance(value, PathValue)
                        for edge in value.edges:
                            doomed_edges[edge] = None
                        for vertex in value.vertices:
                            doomed_vertices[vertex] = None
                    elif kind is AttrKind.EDGE:
                        doomed_edges[value] = None
                    else:
                        doomed_vertices[value] = None
            for edge in doomed_edges:
                if graph.has_edge(edge):
                    graph.remove_edge(edge)
                    summary.relationships_deleted += 1
            for vertex in doomed_vertices:
                if not graph.has_vertex(vertex):
                    continue
                if detach:
                    before = graph.edge_count
                    graph.remove_vertex(vertex, detach=True)
                    summary.relationships_deleted += before - graph.edge_count
                else:
                    graph.remove_vertex(vertex)  # DanglingEdgeError if edges remain
                summary.nodes_deleted += 1
            return rows

        return delete

    # -- SET / REMOVE -----------------------------------------------------------------

    def _prepare_writes(
        self, items: tuple[ast.AstNode, ...], schema: Schema
    ) -> list[RowWrite]:
        """SET / REMOVE items (and MERGE's ON MATCH / ON CREATE), in order."""
        writes: list[RowWrite] = []
        for item in items:
            if isinstance(item, (ast.SetProperty, ast.RemoveProperty)):
                writes.append(self._prepare_property(item, schema))
            elif isinstance(item, (ast.SetLabels, ast.RemoveLabels)):
                writes.append(self._prepare_labels(item, schema))
            elif isinstance(item, ast.SetProperties):
                writes.append(self._prepare_set_properties(item, schema))
            else:  # pragma: no cover - parser produces only the above
                raise CypherSemanticError(
                    f"unsupported SET item {type(item).__name__}"
                )
        return writes

    def _vertex_of(self, variable: str, schema: Schema) -> Callable:
        """Per row: the live vertex *variable* holds, or None for a null."""
        if variable not in schema:
            return _raising(CypherSemanticError, f"variable {variable!r} is not bound")
        position, graph = schema.index_of(variable), self.graph

        def vertex_of(row: tuple) -> int | None:
            value = row[position]
            if value is None:
                return None
            if not isinstance(value, int) or not graph.has_vertex(value):
                raise EvaluationError(f"{variable!r} is not a live vertex: {value!r}")
            return value

        return vertex_of

    def _target_entity(self, variable: str, schema: Schema) -> Callable:
        """Per row: a SET/REMOVE target as ('vertex'|'edge', id), or None
        for a null, honouring the schema's attribute kind to disambiguate
        the two id spaces."""
        if variable not in schema:
            return _raising(CypherSemanticError, f"variable {variable!r} is not bound")
        position, kind = schema.index_of(variable), schema.kind_of(variable)
        graph = self.graph

        def target_entity(row: tuple) -> tuple[str, int] | None:
            value = row[position]
            if value is None:
                return None
            if not isinstance(value, int):
                raise EvaluationError(
                    f"SET/REMOVE target {variable!r} is not an entity: {value!r}"
                )
            if kind is AttrKind.EDGE:
                return ("edge", value)
            if kind is AttrKind.VERTEX:
                return ("vertex", value)
            # Fall back to existence checks (e.g. targets bound by CREATE
            # whose schema kind is VALUE after a WITH projection).
            if graph.has_vertex(value):
                return ("vertex", value)
            if graph.has_edge(value):
                return ("edge", value)
            raise EvaluationError(f"{variable!r} is not a live entity: {value!r}")

        return target_entity

    def _prepare_labels(
        self, item: ast.SetLabels | ast.RemoveLabels, schema: Schema
    ) -> RowWrite:
        vertex_of = self._vertex_of(item.variable, schema)
        labels, add, graph = item.labels, isinstance(item, ast.SetLabels), self.graph

        def write_labels(row: tuple, ctx: EvalContext, summary: UpdateSummary) -> None:
            vertex = vertex_of(row)
            if vertex is None:
                return
            for label in labels:
                present = graph.has_label(vertex, label)
                if add and not present:
                    graph.add_label(vertex, label)
                    summary.labels_added += 1
                elif not add and present:
                    graph.remove_label(vertex, label)
                    summary.labels_removed += 1

        return write_labels

    def _prepare_property(
        self, item: ast.SetProperty | ast.RemoveProperty, schema: Schema
    ) -> RowWrite:
        """``SET v.key = value``, or ``REMOVE v.key`` (a SET to null)."""
        subject, key = item.target.subject, item.target.key
        removing = isinstance(item, ast.RemoveProperty)
        if not isinstance(subject, ast.Variable):
            if removing:
                message = "REMOVE property target must be variable.key"
            else:
                message = (
                    "SET property target must be variable.key, got "
                    f"{unparse_expr(item.target)!r}"
                )
            return _raising(CypherSemanticError, message)
        target_entity = self._target_entity(subject.name, schema)
        value_fn = _null if removing else self._compile_per_row(item.value, schema)
        graph = self.graph

        def set_property(row: tuple, ctx: EvalContext, summary: UpdateSummary) -> None:
            target = target_entity(row)
            if target is None:
                return
            value = value_fn(row, ctx)
            kind, entity = target
            if kind == "vertex":
                graph.set_vertex_property(entity, key, value)
            else:
                graph.set_edge_property(entity, key, value)
            summary.properties_set += 1

        return set_property

    def _prepare_set_properties(
        self, item: ast.SetProperties, schema: Schema
    ) -> RowWrite:
        target_entity = self._target_entity(item.variable, schema)
        value_fn = self._compile_per_row(item.value, schema)
        graph = self.graph

        def set_properties(row: tuple, ctx: EvalContext, summary: UpdateSummary) -> None:
            target = target_entity(row)
            if target is None:
                return
            value = value_fn(row, ctx)
            if value is None:
                value = MapValue({})
            if not isinstance(value, MapValue):
                raise EvaluationError(
                    f"SET {item.variable} {'+=' if item.merge else '='} expects a "
                    f"map, got {value!r}"
                )
            kind, entity = target
            if kind == "vertex":
                current = graph.vertex_properties(entity)
                setter = graph.set_vertex_property
            else:
                current = graph.edge_properties(entity)
                setter = graph.set_edge_property
            if not item.merge:
                for key in current:
                    if key not in value:
                        setter(entity, key, None)
                        summary.properties_set += 1
            for key, new in value.items():
                setter(entity, key, new)
                summary.properties_set += 1

        return set_properties


#: Marker fed to ``count(*)`` aggregators (any non-null value counts).
_ROW_MARKER = object()


def _raising(error: type[Exception], *args: Any) -> Callable:
    """A prepared row function for a check only a row reaching it makes:
    it raises ``error(*args)`` whenever it is called."""

    def fail(*_: Any) -> Any:
        raise error(*args)

    return fail


def _null(row: tuple, ctx: EvalContext) -> None:
    return None


def _each_row(writes: list[RowWrite]) -> Step:
    """SET / REMOVE: apply *writes*, in order, to each row in turn."""

    def apply(rows: list, ctx: EvalContext, summary: UpdateSummary) -> list:
        for row in rows:
            for write in writes:
                write(row, ctx, summary)
        return rows

    return apply


def _extend(pattern: ast.Pattern, schema: Schema) -> tuple[list[str], Schema]:
    """The names *pattern* binds beyond *schema*, and the extended schema."""
    new_attributes = pattern_bindings(pattern, frozenset(schema.names))
    extended = Schema(tuple(schema.attributes) + tuple(new_attributes))
    return [a.name for a in new_attributes], extended


def _projection_kind(expr: ast.Expr, schema: Schema) -> AttrKind:
    if isinstance(expr, ast.Variable) and expr.name in schema:
        return schema.kind_of(expr.name)
    return AttrKind.VALUE


def _count_of(fn: CompiledExpr, ctx: EvalContext) -> int:
    value = fn((), ctx)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise EvaluationError(
            f"SKIP/LIMIT must be a non-negative integer, got {value!r}"
        )
    return value


def _check_bound_kinds(pattern: ast.Pattern, schema: Schema) -> None:
    """Reject a bound variable that *pattern* reuses as another kind, e.g.
    an edge as a node: the matcher and CREATE would read its id as one."""
    check_no_bound_reuse_conflicts(pattern, {a.name: a.kind for a in schema})


def _check_create_pattern(pattern: ast.Pattern, schema: Schema) -> None:
    _check_bound_kinds(pattern, schema)
    for part in pattern.parts:
        for element in part.elements:
            if isinstance(element, ast.RelationshipPattern):
                if element.var_length:
                    raise CypherSemanticError(
                        "variable-length relationships cannot be created"
                    )
                if element.direction == "both":
                    raise CypherSemanticError(
                        "relationships must have a direction in CREATE/MERGE"
                    )
                if len(element.types) != 1:
                    raise CypherSemanticError(
                        "relationships must have exactly one type in CREATE/MERGE"
                    )
                if element.variable and element.variable in schema:
                    raise CypherSemanticError(
                        f"relationship variable {element.variable!r} is "
                        "already bound"
                    )
        if len(part.elements) == 1:
            node = part.elements[0]
            assert isinstance(node, ast.NodePattern)
            if node.variable and node.variable in schema:
                raise CypherSemanticError(
                    f"variable {node.variable!r} is already bound; a "
                    "single-node CREATE/MERGE pattern must introduce a "
                    "new variable"
                )


def _evaluate_properties(
    element: ast.AstNode, row: tuple, properties: PropertyMaps, ctx: EvalContext
) -> dict[str, Any]:
    values = {key: fn(row, ctx) for key, fn in properties.get(id(element), ())}
    return {key: value for key, value in values.items() if value is not None}


def _reject_null_merge_properties(
    part: ast.PatternPart, row: tuple, properties: PropertyMaps, ctx: EvalContext
) -> None:
    """A null in a MERGE property map can never match, and silently
    creating would grow the graph on every re-run — error out instead
    (Neo4j semantics)."""
    for element in part.elements:
        for key, fn in properties.get(id(element), ()):
            if fn(row, ctx) is None:
                raise EvaluationError(
                    f"cannot MERGE using null property value for {key!r}"
                )


def _delete_kind(expression: ast.Expr, schema: Schema) -> AttrKind:
    if isinstance(expression, ast.Variable) and expression.name in schema:
        kind = schema.kind_of(expression.name)
        if kind in (AttrKind.VERTEX, AttrKind.EDGE, AttrKind.PATH):
            return kind
    raise CypherSemanticError(
        "DELETE expects a node, relationship or path variable, got "
        f"{unparse_expr(expression)!r}"
    )


class UpdateExecutor:
    """Executes updating queries against a live graph: each call of
    :meth:`execute` prepares the query and runs it once."""

    def __init__(
        self,
        graph: PropertyGraph,
        parameters: Mapping[str, Any] | None = None,
        batcher: Any = None,
    ):
        self.graph = graph
        self.parameters = parameters
        #: optional batch-scope factory handed to :meth:`PreparedUpdate.run`
        self.batcher = batcher

    def execute(self, query: ast.UpdatingQuery) -> ExecutionResult:
        """Run *query* atomically; returns counters and the RETURN table."""
        return PreparedUpdate(self.graph, query).run(self.parameters, self.batcher)
