"""Clause-by-clause execution of updating queries.

The executor drives an :class:`~repro.cypher.ast.UpdatingQuery` over a
binding table:

* reading clauses (MATCH / OPTIONAL MATCH / UNWIND / WITH) transform the
  table exactly as the read pipeline would,
* updating clauses (CREATE / DELETE / SET / REMOVE / MERGE) mutate the
  graph through its normal API — every write surfaces as change events
  that live incremental views consume,
* an optional final RETURN projects the table into a
  :class:`~repro.eval.results.ResultTable`.

The whole query runs inside a compensating transaction: an error midway
undoes all of the query's writes (and their effects on views).

Visibility rules follow openCypher: a clause sees the graph as left by the
*previous* clause; MERGE additionally sees its own per-row creations (so
``UNWIND [1,2] AS x MERGE (n:Tag)`` creates one vertex, not two).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..algebra.expressions import (
    AggregateSpec,
    EvalContext,
    compile_expr,
    contains_aggregate,
    is_aggregate_call,
)
from ..algebra.schema import AttrKind, Attribute, Schema
from ..cypher import ast
from ..cypher.unparser import unparse_expr
from ..errors import CypherSemanticError, EvaluationError
from ..eval.interpreter import GraphResolver
from ..eval.results import ResultTable, canonical_order
from ..graph.graph import PropertyGraph
from ..graph.values import ListValue, MapValue, PathValue, order_key
from .matcher import PatternMatcher, pattern_bindings
from .summary import UpdateSummary


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of an updating query: counters plus the optional RETURN."""

    summary: UpdateSummary
    table: ResultTable | None = None

    def rows(self) -> list[tuple]:
        return self.table.rows() if self.table is not None else []


@dataclass(slots=True)
class _Table:
    """The binding table: a schema plus rows (a bag — duplicates allowed)."""

    schema: Schema
    rows: list[tuple] = field(default_factory=list)


class UpdateExecutor:
    """Executes updating queries against a live graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        parameters: Mapping[str, Any] | None = None,
        batcher: Any = None,
    ):
        self.graph = graph
        #: optional factory of a batch scope (e.g. ``IncrementalEngine.batch``);
        #: when set, the query's writes reach incremental views as one
        #: consolidated delta after its transaction commits, instead of one
        #: propagation per elementary write
        self._batcher = batcher
        self.ctx = EvalContext(dict(parameters or {}))
        self.resolver = GraphResolver(graph)
        self.summary = UpdateSummary()
        # SET/REMOVE items are evaluated once per binding row; cache their
        # compiled closures per (expression, schema) identity
        self._compiled: dict[tuple[int, int], Any] = {}

    def _cached_expr(self, expr: ast.Expr, schema: Schema):
        key = (id(expr), id(schema))
        fn = self._compiled.get(key)
        if fn is None:
            fn = compile_expr(expr, schema, self.resolver)
            self._compiled[key] = fn
        return fn

    # -- public -------------------------------------------------------------

    def execute(self, query: ast.UpdatingQuery) -> ExecutionResult:
        """Run *query* atomically; returns counters and the RETURN table.

        When the graph is already inside a transaction — e.g. a view
        change-callback (trigger) issuing a follow-up write from within an
        enclosing updating query — the execution *joins* that scope instead
        of nesting: a failure anywhere rolls back the outermost query and
        everything its triggers did.
        """
        batch_scope = self._batcher() if self._batcher is not None else nullcontext()
        scope = (
            nullcontext() if self.graph.in_transaction else self.graph.transaction()
        )
        with batch_scope, scope:
            table = _Table(Schema(()), [()])
            for clause in query.clauses:
                table = self._apply_clause(table, clause)
            result_table = None
            if query.return_clause is not None:
                body = query.return_clause.body
                table = self._project(table, body, where=None)
                rows = self._ordered_rows(table, body)
                result_table = ResultTable(
                    table.schema,
                    rows,
                    ordered=bool(body.order_by or body.skip or body.limit),
                    graph=self.graph,
                )
        return ExecutionResult(self.summary, result_table)

    # -- clause dispatch ------------------------------------------------------

    def _apply_clause(self, table: _Table, clause: ast.AstNode) -> _Table:
        if isinstance(clause, ast.MatchClause):
            return self._apply_match(table, clause)
        if isinstance(clause, ast.UnwindClause):
            return self._apply_unwind(table, clause)
        if isinstance(clause, ast.WithClause):
            projected = self._project(table, clause.body, where=clause.where)
            if clause.body.order_by or clause.body.skip or clause.body.limit:
                projected = _Table(
                    projected.schema, self._ordered_rows(projected, clause.body)
                )
            return projected
        if isinstance(clause, ast.CreateClause):
            return self._apply_create(table, clause)
        if isinstance(clause, ast.MergeClause):
            return self._apply_merge(table, clause)
        if isinstance(clause, ast.DeleteClause):
            return self._apply_delete(table, clause)
        if isinstance(clause, ast.SetClause):
            return self._apply_set(table, clause.items)
        if isinstance(clause, ast.RemoveClause):
            return self._apply_remove(table, clause)
        raise CypherSemanticError(
            f"unsupported clause in updating query: {type(clause).__name__}"
        )

    # -- reading clauses --------------------------------------------------------

    def _apply_match(self, table: _Table, clause: ast.MatchClause) -> _Table:
        matcher = PatternMatcher(
            self.graph, clause.pattern, table.schema, self.resolver, clause.where
        )
        rows: list[tuple] = []
        pad = (None,) * len(matcher.new_names)
        for row in table.rows:
            matched = False
            for extended in matcher.expand(row, self.ctx):
                rows.append(extended)
                matched = True
            if clause.optional and not matched:
                rows.append(row + pad)
        return _Table(matcher.output_schema, rows)

    def _apply_unwind(self, table: _Table, clause: ast.UnwindClause) -> _Table:
        if clause.alias in table.schema:
            raise CypherSemanticError(f"variable {clause.alias!r} is already bound")
        fn = compile_expr(clause.expression, table.schema, self.resolver)
        schema = Schema(
            tuple(table.schema.attributes) + (Attribute(clause.alias, AttrKind.VALUE),)
        )
        rows: list[tuple] = []
        for row in table.rows:
            value = fn(row, self.ctx)
            if value is None:
                continue
            items = list(value) if isinstance(value, ListValue) else [value]
            for item in items:
                rows.append(row + (item,))
        return _Table(schema, rows)

    # -- projection (WITH / RETURN) ------------------------------------------------

    def _project(
        self, table: _Table, body: ast.ProjectionBody, where: ast.Expr | None
    ) -> _Table:
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

        aggregating = any(contains_aggregate(i.expression) for i in body.items)
        if aggregating:
            projected = self._project_aggregate(table, body, names)
        else:
            projected = self._project_plain(table, body, names)
        if body.distinct:
            seen: dict[tuple, None] = {}
            for row in projected.rows:
                seen.setdefault(row, None)
            projected = _Table(projected.schema, list(seen))
        if where is not None:
            predicate = compile_expr(where, projected.schema, self.resolver)
            projected = _Table(
                projected.schema,
                [r for r in projected.rows if predicate(r, self.ctx) is True],
            )
        return projected

    def _projection_kind(self, expr: ast.Expr, schema: Schema) -> AttrKind:
        if isinstance(expr, ast.Variable) and expr.name in schema:
            return schema.kind_of(expr.name)
        return AttrKind.VALUE

    def _project_plain(
        self, table: _Table, body: ast.ProjectionBody, names: list[str]
    ) -> _Table:
        attributes = tuple(
            Attribute(name, self._projection_kind(item.expression, table.schema))
            for name, item in zip(names, body.items)
        )
        fns = [
            compile_expr(item.expression, table.schema, self.resolver)
            for item in body.items
        ]
        rows = [tuple(fn(row, self.ctx) for fn in fns) for row in table.rows]
        return _Table(Schema(attributes), rows)

    def _project_aggregate(
        self, table: _Table, body: ast.ProjectionBody, names: list[str]
    ) -> _Table:
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

        group_fns = [
            compile_expr(item.expression, table.schema, self.resolver)
            for _, item in group_items
        ]
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
            compile_expr(spec.argument, table.schema, self.resolver)
            if spec.argument is not None
            else None
            for spec in specs
        ]

        groups: dict[tuple, list] = {}
        for row in table.rows:
            key = tuple(fn(row, self.ctx) for fn in group_fns)
            aggregators = groups.get(key)
            if aggregators is None:
                aggregators = [spec.make_aggregator() for spec in specs]
                groups[key] = aggregators
            for aggregator, argument_fn in zip(aggregators, argument_fns):
                value = argument_fn(row, self.ctx) if argument_fn else _ROW_MARKER
                aggregator.insert(value, 1)
        if not groups and not group_items:
            groups[()] = [spec.make_aggregator() for spec in specs]

        attributes: list[Attribute | None] = [None] * len(body.items)
        for (position, item), __ in zip(group_items, group_fns):
            attributes[position] = Attribute(
                names[position], self._projection_kind(item.expression, table.schema)
            )
        for position, __ in agg_items:
            attributes[position] = Attribute(names[position], AttrKind.VALUE)

        rows: list[tuple] = []
        for key, aggregators in groups.items():
            row: list[Any] = [None] * len(body.items)
            for (position, __), value in zip(group_items, key):
                row[position] = value
            for (position, __), aggregator in zip(agg_items, aggregators):
                row[position] = aggregator.result()
            rows.append(tuple(row))
        return _Table(Schema(tuple(a for a in attributes if a is not None)), rows)

    def _ordered_rows(self, table: _Table, body: ast.ProjectionBody) -> list[tuple]:
        rows = canonical_order(table.rows)
        for item in reversed(body.order_by):
            fn = compile_expr(item.expression, table.schema, self.resolver)
            rows.sort(
                key=lambda r: order_key(fn(r, self.ctx)),
                reverse=not item.ascending,
            )
        if body.skip is not None:
            rows = rows[self._count_of(body.skip) :]
        if body.limit is not None:
            rows = rows[: self._count_of(body.limit)]
        return rows

    def _count_of(self, expr: ast.Expr) -> int:
        value = compile_expr(expr, Schema(()), self.resolver)((), self.ctx)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise EvaluationError(
                f"SKIP/LIMIT must be a non-negative integer, got {value!r}"
            )
        return value

    # -- CREATE -------------------------------------------------------------------

    def _apply_create(self, table: _Table, clause: ast.CreateClause) -> _Table:
        self._check_create_pattern(clause.pattern, table.schema)
        new_attributes = pattern_bindings(
            clause.pattern, frozenset(table.schema.names)
        )
        schema = Schema(tuple(table.schema.attributes) + tuple(new_attributes))
        new_names = [a.name for a in new_attributes]
        compiled = self._compile_pattern_properties(clause.pattern, table.schema)
        rows: list[tuple] = []
        for row in table.rows:
            bindings = dict(zip(table.schema.names, row))
            for part in clause.pattern.parts:
                self._create_part(part, bindings, row, compiled)
            rows.append(row + tuple(bindings[name] for name in new_names))
        return _Table(schema, rows)

    def _check_create_pattern(self, pattern: ast.Pattern, schema: Schema) -> None:
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

    def _compile_pattern_properties(
        self, pattern: ast.Pattern, schema: Schema
    ) -> dict[int, list[tuple[str, Any]]]:
        compiled: dict[int, list[tuple[str, Any]]] = {}
        for part in pattern.parts:
            for element in part.elements:
                if element.properties:  # type: ignore[union-attr]
                    compiled[id(element)] = [
                        (key, compile_expr(value, schema, self.resolver))
                        for key, value in element.properties  # type: ignore[union-attr]
                    ]
        return compiled

    def _evaluate_properties(
        self,
        element: ast.AstNode,
        row: tuple,
        compiled: dict[int, list[tuple[str, Any]]],
    ) -> dict[str, Any]:
        entries = compiled.get(id(element), ())
        values = {key: fn(row, self.ctx) for key, fn in entries}
        return {key: value for key, value in values.items() if value is not None}

    def _create_part(
        self,
        part: ast.PatternPart,
        bindings: dict[str, Any],
        row: tuple,
        compiled: dict[int, list[tuple[str, Any]]],
    ) -> None:
        elements = part.elements
        vertices: list[int] = []
        edges: list[int] = []
        at = self._create_node(elements[0], bindings, row, compiled)
        vertices.append(at)
        position = 1
        while position < len(elements):
            relationship = elements[position]
            node = elements[position + 1]
            assert isinstance(relationship, ast.RelationshipPattern)
            end = self._create_node(node, bindings, row, compiled)
            properties = self._evaluate_properties(relationship, row, compiled)
            if relationship.direction == "out":
                source, target = at, end
            else:
                source, target = end, at
            edge = self.graph.add_edge(
                source, target, relationship.types[0], properties=properties
            )
            self.summary.relationships_created += 1
            self.summary.properties_set += len(properties)
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
        compiled: dict[int, list[tuple[str, Any]]],
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
        properties = self._evaluate_properties(node, row, compiled)
        vertex = self.graph.add_vertex(labels=node.labels, properties=properties)
        self.summary.nodes_created += 1
        self.summary.properties_set += len(properties)
        self.summary.labels_added += len(node.labels)
        if node.variable:
            bindings[node.variable] = vertex
        return vertex

    # -- MERGE --------------------------------------------------------------------

    def _apply_merge(self, table: _Table, clause: ast.MergeClause) -> _Table:
        part = clause.part
        for element in part.elements:
            if isinstance(element, ast.RelationshipPattern) and element.var_length:
                raise CypherSemanticError(
                    "variable-length relationships are not allowed in MERGE"
                )
        pattern = ast.Pattern((part,))
        self._check_create_pattern(pattern, table.schema)
        new_attributes = pattern_bindings(pattern, frozenset(table.schema.names))
        schema = Schema(tuple(table.schema.attributes) + tuple(new_attributes))
        new_names = [a.name for a in new_attributes]
        compiled = self._compile_pattern_properties(pattern, table.schema)

        # One matcher serves every row: expand() consults the live graph,
        # so each row's match sees earlier rows' creations (MERGE rule).
        matcher = PatternMatcher(self.graph, pattern, table.schema, self.resolver)
        rows: list[tuple] = []
        for row in table.rows:
            matches = list(matcher.expand(row, self.ctx))
            if matches:
                for extended in matches:
                    bindings = dict(zip(matcher.output_schema.names, extended))
                    self._apply_set_items(clause.on_match, bindings, extended, schema)
                    rows.append(extended)
            else:
                self._reject_null_merge_properties(part, row, compiled)
                bindings = dict(zip(table.schema.names, row))
                self._create_part(part, bindings, row, compiled)
                extended = row + tuple(bindings[name] for name in new_names)
                self._apply_set_items(clause.on_create, bindings, extended, schema)
                rows.append(extended)
        return _Table(schema, rows)

    def _reject_null_merge_properties(
        self,
        part: ast.PatternPart,
        row: tuple,
        compiled: dict[int, list[tuple[str, Any]]],
    ) -> None:
        """A null in a MERGE property map can never match, and silently
        creating would grow the graph on every re-run — error out instead
        (Neo4j semantics)."""
        for element in part.elements:
            for key, fn in compiled.get(id(element), ()):
                if fn(row, self.ctx) is None:
                    raise EvaluationError(
                        f"cannot MERGE using null property value for {key!r}"
                    )

    # -- DELETE -------------------------------------------------------------------

    def _apply_delete(self, table: _Table, clause: ast.DeleteClause) -> _Table:
        doomed_vertices: dict[int, None] = {}
        doomed_edges: dict[int, None] = {}
        for expression in clause.expressions:
            kind = self._delete_kind(expression, table.schema)
            fn = compile_expr(expression, table.schema, self.resolver)
            for row in table.rows:
                value = fn(row, self.ctx)
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
            if self.graph.has_edge(edge):
                self.graph.remove_edge(edge)
                self.summary.relationships_deleted += 1
        for vertex in doomed_vertices:
            if not self.graph.has_vertex(vertex):
                continue
            if clause.detach:
                before = self.graph.edge_count
                self.graph.remove_vertex(vertex, detach=True)
                self.summary.relationships_deleted += before - self.graph.edge_count
            else:
                self.graph.remove_vertex(vertex)  # DanglingEdgeError if edges remain
            self.summary.nodes_deleted += 1
        return table

    def _delete_kind(self, expression: ast.Expr, schema: Schema) -> AttrKind:
        if isinstance(expression, ast.Variable) and expression.name in schema:
            kind = schema.kind_of(expression.name)
            if kind in (AttrKind.VERTEX, AttrKind.EDGE, AttrKind.PATH):
                return kind
        raise CypherSemanticError(
            "DELETE expects a node, relationship or path variable, got "
            f"{unparse_expr(expression)!r}"
        )

    # -- SET / REMOVE -----------------------------------------------------------------

    def _apply_set(self, table: _Table, items: tuple[ast.AstNode, ...]) -> _Table:
        for row in table.rows:
            bindings = dict(zip(table.schema.names, row))
            self._apply_set_items(items, bindings, row, table.schema)
        return table

    def _apply_set_items(
        self,
        items: tuple[ast.AstNode, ...],
        bindings: dict[str, Any],
        row: tuple,
        schema: Schema,
    ) -> None:
        for item in items:
            if isinstance(item, ast.SetProperty):
                self._set_property(item, bindings, row, schema)
            elif isinstance(item, ast.SetLabels):
                vertex = self._vertex_of(item.variable, bindings)
                if vertex is None:
                    continue
                for label in item.labels:
                    if not self.graph.has_label(vertex, label):
                        self.graph.add_label(vertex, label)
                        self.summary.labels_added += 1
            elif isinstance(item, ast.SetProperties):
                self._set_properties(item, bindings, row, schema)
            else:  # pragma: no cover - parser produces only the above
                raise CypherSemanticError(
                    f"unsupported SET item {type(item).__name__}"
                )

    def _vertex_of(self, variable: str, bindings: dict[str, Any]) -> int | None:
        if variable not in bindings:
            raise CypherSemanticError(f"variable {variable!r} is not bound")
        value = bindings[variable]
        if value is None:
            return None
        if not isinstance(value, int) or not self.graph.has_vertex(value):
            raise EvaluationError(f"{variable!r} is not a live vertex: {value!r}")
        return value

    def _target_entity(
        self, variable: str, bindings: dict[str, Any], schema: Schema
    ) -> tuple[str, int] | None:
        """Resolve a SET/REMOVE target to ('vertex'|'edge', id), honouring
        the schema's attribute kind to disambiguate the two id spaces."""
        if variable not in bindings:
            raise CypherSemanticError(f"variable {variable!r} is not bound")
        value = bindings[variable]
        if value is None:
            return None
        if not isinstance(value, int):
            raise EvaluationError(
                f"SET/REMOVE target {variable!r} is not an entity: {value!r}"
            )
        kind = schema.kind_of(variable) if variable in schema else None
        if kind is AttrKind.EDGE:
            return ("edge", value)
        if kind is AttrKind.VERTEX:
            return ("vertex", value)
        # Fall back to existence checks (e.g. targets bound by CREATE whose
        # schema kind is VALUE after a WITH projection).
        if self.graph.has_vertex(value):
            return ("vertex", value)
        if self.graph.has_edge(value):
            return ("edge", value)
        raise EvaluationError(f"{variable!r} is not a live entity: {value!r}")

    def _set_property(
        self,
        item: ast.SetProperty,
        bindings: dict[str, Any],
        row: tuple,
        schema: Schema,
    ) -> None:
        subject = item.target.subject
        if not isinstance(subject, ast.Variable):
            raise CypherSemanticError(
                "SET property target must be variable.key, got "
                f"{unparse_expr(item.target)!r}"
            )
        target = self._target_entity(subject.name, bindings, schema)
        if target is None:
            return
        value = self._cached_expr(item.value, schema)(row, self.ctx)
        kind, entity = target
        if kind == "vertex":
            self.graph.set_vertex_property(entity, item.target.key, value)
        else:
            self.graph.set_edge_property(entity, item.target.key, value)
        self.summary.properties_set += 1

    def _set_properties(
        self,
        item: ast.SetProperties,
        bindings: dict[str, Any],
        row: tuple,
        schema: Schema,
    ) -> None:
        target = self._target_entity(item.variable, bindings, schema)
        if target is None:
            return
        value = self._cached_expr(item.value, schema)(row, self.ctx)
        if value is None:
            value = MapValue({})
        if not isinstance(value, MapValue):
            raise EvaluationError(
                f"SET {item.variable} {'+=' if item.merge else '='} expects a "
                f"map, got {value!r}"
            )
        kind, entity = target
        if kind == "vertex":
            current = self.graph.vertex_properties(entity)
            setter = self.graph.set_vertex_property
        else:
            current = self.graph.edge_properties(entity)
            setter = self.graph.set_edge_property
        if not item.merge:
            for key in current:
                if key not in value:
                    setter(entity, key, None)
                    self.summary.properties_set += 1
        for key, new in value.items():
            setter(entity, key, new)
            self.summary.properties_set += 1

    def _apply_remove(self, table: _Table, clause: ast.RemoveClause) -> _Table:
        for row in table.rows:
            bindings = dict(zip(table.schema.names, row))
            for item in clause.items:
                if isinstance(item, ast.RemoveProperty):
                    subject = item.target.subject
                    if not isinstance(subject, ast.Variable):
                        raise CypherSemanticError(
                            "REMOVE property target must be variable.key"
                        )
                    target = self._target_entity(
                        subject.name, bindings, table.schema
                    )
                    if target is None:
                        continue
                    kind, entity = target
                    if kind == "vertex":
                        self.graph.set_vertex_property(entity, item.target.key, None)
                    else:
                        self.graph.set_edge_property(entity, item.target.key, None)
                    self.summary.properties_set += 1
                else:
                    assert isinstance(item, ast.RemoveLabels)
                    vertex = self._vertex_of(item.variable, bindings)
                    if vertex is None:
                        continue
                    for label in item.labels:
                        if self.graph.has_label(vertex, label):
                            self.graph.remove_label(vertex, label)
                            self.summary.labels_removed += 1
        return table


#: Marker fed to ``count(*)`` aggregators (any non-null value counts).
_ROW_MARKER = object()


def execute_update(
    graph: PropertyGraph,
    query: ast.UpdatingQuery,
    parameters: Mapping[str, Any] | None = None,
) -> ExecutionResult:
    """Execute *query* against *graph* inside a transaction."""
    return UpdateExecutor(graph, parameters).execute(query)
