"""Compilation step 1 (paper §4): openCypher AST → GRA.

Follows the mapping of Marton–Szárnyas–Varró [20] that the paper builds on:

* each pattern part becomes a ``get-vertices`` (©) chain of ``expand-out``
  (↑) operators; comma-separated parts and consecutive MATCH clauses are
  combined by natural joins;
* WHERE and pattern property maps become selections σ;
* OPTIONAL MATCH becomes a left outer join ⟕;
* WITH/RETURN become projections π (with grouping γ when aggregates occur,
  dedup δ for DISTINCT, and sort/skip/limit for the ordering constructs
  outside the incrementally maintainable fragment);
* named paths become atomic path values built by the internal ``_path``
  constructor, with variable-length segments contributed as whole
  sub-paths — the paper's "paths as atomic units" design;
* Cypher's per-MATCH relationship uniqueness (no edge matched twice within
  one MATCH) is compiled to explicit disjointness predicates.
"""

from __future__ import annotations

from ..cypher import ast
from ..cypher.parser import UnionQuery
from ..cypher.unparser import unparse_expr
from ..errors import (
    CompilerError,
    CypherSemanticError,
    UnsupportedFeatureError,
)
from ..algebra import ops
from ..algebra.expressions import (
    AGGREGATE_NAMES,
    FUNCTIONS,
    AggregateSpec,
    contains_aggregate,
    is_aggregate_call,
)
from ..algebra.schema import AttrKind, Schema
from .rewrite import bottom_up, substitute_subexpression, substitute_variables

#: Graph-dependent functions resolved by the pushdown pass (or rewritten
#: here); they are not in the pure-function registry.
_GRAPH_FUNCTIONS = frozenset({"labels", "type", "properties", "id", "startnode", "endnode"})


def _eq(left: ast.Expr, right: ast.Expr) -> ast.Expr:
    return ast.Comparison((left, right), ("=",))


def _conjoin(predicates: list[ast.Expr]) -> ast.Expr | None:
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return ast.BooleanOp("AND", tuple(predicates))


class GraCompiler:
    """Stateful single-query compiler (one instance per query)."""

    def __init__(self) -> None:
        self._anon = 0
        # compiler-introduced column names, invisible to ``RETURN *``
        self._anon_names: set[str] = set()
        self._used_rel_vars: set[str] = set()
        # var-length relationship variable -> expression over its segment path
        self._rel_list_rewrites: dict[str, ast.Expr] = {}
        # single-hop directed edge var -> (source var, target var)
        self._edge_endpoints: dict[str, tuple[str, str]] = {}

    # -- helpers -----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._anon += 1
        name = f"_{prefix}{self._anon}"
        self._anon_names.add(name)
        return name

    # -- expression preparation --------------------------------------------

    def _prepare(
        self, expr: ast.Expr, schema: Schema, allow_aggregates: bool = False
    ) -> ast.Expr:
        """Validate and normalise an expression against *schema*.

        Applies the variable rewrites accumulated from patterns (var-length
        relationship lists, ``id()``/``startNode()``/``endNode()``), checks
        function names and variable bindings, and rejects aggregates where
        they are not allowed.
        """
        expr = substitute_variables(expr, self._rel_list_rewrites)

        def normalise(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.FunctionCall):
                if node.name == "id" and len(node.args) == 1:
                    return node.args[0]
                if node.name in ("startnode", "endnode") and len(node.args) == 1:
                    arg = node.args[0]
                    if (
                        isinstance(arg, ast.Variable)
                        and arg.name in self._edge_endpoints
                    ):
                        src, tgt = self._edge_endpoints[arg.name]
                        return ast.Variable(src if node.name == "startnode" else tgt)
                    raise UnsupportedFeatureError(
                        f"{node.name}() requires a directed, single-hop "
                        "pattern-bound relationship variable"
                    )
                if node.name == "keys" and len(node.args) == 1:
                    arg = node.args[0]
                    if (
                        isinstance(arg, ast.Variable)
                        and arg.name in schema
                        and schema.kind_of(arg.name) in (AttrKind.VERTEX, AttrKind.EDGE)
                    ):
                        return ast.FunctionCall(
                            "keys", (ast.FunctionCall("properties", (arg,)),)
                        )
            return node

        expr = bottom_up(expr, normalise)
        self._validate(expr, schema, allow_aggregates)
        return expr

    def _validate(
        self, expr: ast.Expr, schema: Schema, allow_aggregates: bool
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Variable):
                if node.name not in schema:
                    raise CypherSemanticError(f"variable {node.name!r} is not bound")
            elif isinstance(node, ast.Property):
                if (
                    isinstance(node.subject, ast.Variable)
                    and node.subject.name in schema
                    and schema.kind_of(node.subject.name) is AttrKind.PATH
                ):
                    raise CypherSemanticError(
                        f"paths have no properties: {node.subject.name}.{node.key}"
                    )
            elif isinstance(node, ast.HasLabel):
                if not isinstance(node.subject, ast.Variable):
                    raise UnsupportedFeatureError(
                        "label predicates apply to variables only"
                    )
                if (
                    node.subject.name in schema
                    and schema.kind_of(node.subject.name) is not AttrKind.VERTEX
                ):
                    raise CypherSemanticError(
                        f"label predicate on non-vertex {node.subject.name!r}"
                    )
            elif isinstance(node, ast.FunctionCall):
                if node.name in AGGREGATE_NAMES:
                    if not allow_aggregates:
                        raise CypherSemanticError(
                            f"aggregate {node.name}() is not allowed here"
                        )
                    for arg in node.args:
                        if contains_aggregate(arg):
                            raise CypherSemanticError("nested aggregates")
                elif node.name not in FUNCTIONS and node.name not in _GRAPH_FUNCTIONS:
                    raise CypherSemanticError(f"unknown function {node.name}()")
                if node.name in ("labels", "type", "properties"):
                    arg = node.args[0] if node.args else None
                    if not isinstance(arg, ast.Variable):
                        raise UnsupportedFeatureError(
                            f"{node.name}() applies to pattern variables only"
                        )
                    if arg.name in schema:
                        kind = schema.kind_of(arg.name)
                        expected = (
                            (AttrKind.VERTEX,)
                            if node.name == "labels"
                            else (AttrKind.EDGE,)
                            if node.name == "type"
                            else (AttrKind.VERTEX, AttrKind.EDGE)
                        )
                        if kind not in expected:
                            raise CypherSemanticError(
                                f"{node.name}() applied to {kind.value} "
                                f"variable {arg.name!r}"
                            )
            elif isinstance(node, ast.CountStar) and not allow_aggregates:
                raise CypherSemanticError("count(*) is not allowed here")

    # -- patterns ------------------------------------------------------------

    def _node_base(self, node: ast.NodePattern, var: str) -> ops.Operator:
        return ops.GetVertices(var, node.labels)

    def _pattern_part(
        self, part: ast.PatternPart
    ) -> tuple[ops.Operator, list[ast.Expr], list[tuple[str, tuple[str, ...]]], list[str]]:
        """Compile one pattern part.

        Returns ``(plan, predicates, single_edges, segment_path_vars)``;
        predicates carry pattern property maps and intra-part vertex reuse
        equalities, and are applied by the caller after joining parts.
        ``single_edges`` pairs each single-hop edge variable with the
        relationship types its pattern admits (empty: any).
        """
        predicates: list[ast.Expr] = []
        single_edges: list[tuple[str, tuple[str, ...]]] = []
        segment_paths: list[str] = []
        path_components: list[ast.Expr] = []

        elements = part.elements
        first = elements[0]
        assert isinstance(first, ast.NodePattern)
        first_var = first.variable or self._fresh("v")
        plan: ops.Operator = self._node_base(first, first_var)
        for key, value in first.properties:
            predicates.append(_eq(ast.Property(ast.Variable(first_var), key), value))
        path_components.append(ast.Variable(first_var))
        previous_var = first_var

        index = 1
        while index < len(elements):
            rel = elements[index]
            node = elements[index + 1]
            assert isinstance(rel, ast.RelationshipPattern)
            assert isinstance(node, ast.NodePattern)
            index += 2

            node_var = node.variable or self._fresh("v")
            target_var = node_var
            if node_var in plan.schema:
                # cyclic pattern within the part, e.g. (a)-[:T]->(a):
                # expand to a fresh variable and assert equality.
                target_var = self._fresh("v")
                predicates.append(
                    _eq(ast.Variable(target_var), ast.Variable(node_var))
                )
            for key, value in node.properties:
                predicates.append(
                    _eq(ast.Property(ast.Variable(node_var), key), value)
                )

            rel_var = rel.variable
            if rel_var is not None:
                if (
                    rel_var in self._used_rel_vars
                    or rel_var in self._rel_list_rewrites
                ):
                    raise CypherSemanticError(
                        f"relationship variable {rel_var!r} is already bound"
                    )
                self._used_rel_vars.add(rel_var)

            if rel.var_length:
                if rel.properties:
                    raise UnsupportedFeatureError(
                        "property maps on variable-length relationships"
                    )
                path_alias = self._fresh("p")
                plan = ops.ExpandOut(
                    plan,
                    src=previous_var,
                    edge=self._fresh("e"),
                    tgt=target_var,
                    types=rel.types,
                    tgt_labels=node.labels,
                    direction=rel.direction,
                    min_hops=rel.min_hops,
                    max_hops=rel.max_hops,
                    path_alias=path_alias,
                )
                segment_paths.append(path_alias)
                # The segment path already ends at the target vertex, so it
                # stands in for both the relationship and the node component.
                path_components.append(ast.Variable(path_alias))
                if rel_var is not None:
                    self._rel_list_rewrites[rel_var] = ast.FunctionCall(
                        "relationships", (ast.Variable(path_alias),)
                    )
            else:
                edge_var = rel_var or self._fresh("e")
                plan = ops.ExpandOut(
                    plan,
                    src=previous_var,
                    edge=edge_var,
                    tgt=target_var,
                    types=rel.types,
                    tgt_labels=node.labels,
                    direction=rel.direction,
                )
                single_edges.append((edge_var, rel.types))
                if rel.direction == "out":
                    self._edge_endpoints[edge_var] = (previous_var, target_var)
                elif rel.direction == "in":
                    self._edge_endpoints[edge_var] = (target_var, previous_var)
                for key, value in rel.properties:
                    predicates.append(
                        _eq(ast.Property(ast.Variable(edge_var), key), value)
                    )
                path_components.append(ast.Variable(edge_var))
                path_components.append(ast.Variable(target_var))

            previous_var = target_var

        if part.variable is not None:
            if part.variable in plan.schema:
                raise CypherSemanticError(
                    f"path variable {part.variable!r} is already bound"
                )
            items = [(name, ast.Variable(name)) for name in plan.schema.names]
            items.append(
                (part.variable, ast.FunctionCall("_path", tuple(path_components)))
            )
            plan = ops.Project(plan, tuple(items))
        return plan, predicates, single_edges, segment_paths

    def _relationships_of(self, path_var: str) -> ast.Expr:
        return ast.FunctionCall("relationships", (ast.Variable(path_var),))

    def _uniqueness_predicates(
        self, single_edges: list[tuple[str, tuple[str, ...]]], segment_paths: list[str]
    ) -> list[ast.Expr]:
        """Cypher's per-MATCH relationship uniqueness as predicates.

        An edge has exactly one type, so two single hops whose (non-empty)
        type sets are disjoint can never bind the same edge: that pair's
        ``<>`` cannot fail and is not emitted.
        """
        predicates: list[ast.Expr] = []
        for i, (edge, types) in enumerate(single_edges):
            for other, other_types in single_edges[i + 1 :]:
                if types and other_types and not set(types) & set(other_types):
                    continue
                predicates.append(
                    ast.Comparison((ast.Variable(edge), ast.Variable(other)), ("<>",))
                )
        for edge, _ in single_edges:
            for path in segment_paths:
                predicates.append(
                    ast.Not(ast.In(ast.Variable(edge), self._relationships_of(path)))
                )
        for i in range(len(segment_paths)):
            for j in range(i + 1, len(segment_paths)):
                predicates.append(
                    ast.FunctionCall(
                        "_disjoint",
                        (
                            self._relationships_of(segment_paths[i]),
                            self._relationships_of(segment_paths[j]),
                        ),
                    )
                )
        return predicates

    # -- clauses -------------------------------------------------------------

    def _match(self, plan: ops.Operator | None, clause: ast.MatchClause) -> ops.Operator:
        part_plans: list[ops.Operator] = []
        predicates: list[ast.Expr] = []
        single_edges: list[tuple[str, tuple[str, ...]]] = []
        segment_paths: list[str] = []
        for part in clause.pattern.parts:
            part_plan, part_preds, edges, paths = self._pattern_part(part)
            part_plans.append(part_plan)
            predicates.extend(part_preds)
            single_edges.extend(edges)
            segment_paths.extend(paths)
        predicates.extend(self._uniqueness_predicates(single_edges, segment_paths))

        clause_plan = part_plans[0]
        for part_plan in part_plans[1:]:
            clause_plan = ops.Join(clause_plan, part_plan)

        if clause.optional:
            left = plan if plan is not None else ops.Unit()
            inner_predicates = list(predicates)
            if clause.where is not None:
                combined_schema, _ = left.schema.join_with(clause_plan.schema)
                where = self._prepare(clause.where, combined_schema)
                # Pull left-bound vertex variables the predicate needs into
                # the optional side so the predicate can be evaluated there
                # (ON-condition semantics).
                needed = ast.free_variables(where) - set(clause_plan.schema.names)
                for name in sorted(needed):
                    if name not in left.schema:
                        raise CypherSemanticError(f"variable {name!r} is not bound")
                    if left.schema.kind_of(name) is not AttrKind.VERTEX:
                        raise UnsupportedFeatureError(
                            "OPTIONAL MATCH WHERE may only reference vertex "
                            "variables from the outer scope "
                            f"(got {name!r})"
                        )
                    clause_plan = ops.Join(clause_plan, ops.GetVertices(name, ()))
                inner_predicates.append(where)
            prepared = [
                self._prepare(p, clause_plan.schema) for p in inner_predicates
            ]
            predicate = _conjoin(prepared)
            if predicate is not None:
                clause_plan = ops.Select(clause_plan, predicate)
            return ops.LeftOuterJoin(left, clause_plan)

        plan = clause_plan if plan is None else ops.Join(plan, clause_plan)
        if clause.where is not None:
            if contains_aggregate(clause.where):
                raise CypherSemanticError("aggregates are not allowed in WHERE")
            predicates.append(clause.where)
        prepared = [self._prepare(p, plan.schema) for p in predicates]
        predicate = _conjoin(prepared)
        if predicate is not None:
            plan = ops.Select(plan, predicate)
        return plan

    def _default_name(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Variable):
            return expr.name
        if isinstance(expr, ast.Property) and isinstance(expr.subject, ast.Variable):
            return f"{expr.subject.name}.{expr.key}"
        return unparse_expr(expr)

    def _projection(
        self,
        plan: ops.Operator,
        body: ast.ProjectionBody,
        where: ast.Expr | None,
    ) -> ops.Operator:
        """Compile a WITH/RETURN projection body onto *plan*."""
        items = body.items
        if body.star:
            # ``*`` expands to the user-visible columns, in schema order,
            # ahead of any explicit items; compiler-introduced names
            # (anonymous pattern variables) stay hidden.
            visible = [
                name
                for name in plan.schema.names
                if name not in self._anon_names
            ]
            if not visible:
                raise CypherSemanticError(
                    "* is not allowed when there are no variables in scope"
                )
            items = (
                tuple(
                    ast.ReturnItem(ast.Variable(name), None)
                    for name in visible
                )
                + items
            )
        named_items: list[tuple[str, ast.Expr]] = []
        seen: set[str] = set()
        for item in items:
            expr = self._prepare(item.expression, plan.schema, allow_aggregates=True)
            name = item.alias or self._default_name(item.expression)
            if name in seen:
                raise CypherSemanticError(f"duplicate column name {name!r}")
            seen.add(name)
            named_items.append((name, expr))

        if any(contains_aggregate(expr) for _, expr in named_items):
            plan = self._aggregate_projection(plan, named_items)
        else:
            plan = ops.Project(plan, tuple(named_items))

        if body.distinct:
            plan = ops.Dedup(plan)

        if where is not None:
            prepared = self._prepare(where, plan.schema)
            plan = ops.Select(plan, prepared)

        if body.order_by:
            sort_items = []
            for order in body.order_by:
                # ORDER BY may reference output columns either by alias or by
                # repeating the projected expression verbatim.
                expr = order.expression
                for name, item_expr in named_items:
                    expr = substitute_subexpression(expr, item_expr, ast.Variable(name))
                expr = self._prepare(expr, plan.schema)
                sort_items.append((expr, order.ascending))
            plan = ops.Sort(plan, tuple(sort_items))
        if body.skip is not None:
            plan = ops.Skip(plan, self._constant(body.skip, "SKIP"))
        if body.limit is not None:
            plan = ops.Limit(plan, self._constant(body.limit, "LIMIT"))

        # Projected aliases shadow pattern-level rewrites from here on.
        self._rel_list_rewrites = {
            k: v for k, v in self._rel_list_rewrites.items() if k not in plan.schema
        }
        self._edge_endpoints = {
            k: v
            for k, v in self._edge_endpoints.items()
            if k in plan.schema
            and v[0] in plan.schema
            and v[1] in plan.schema
        }
        return plan

    def _constant(self, expr: ast.Expr, what: str) -> ast.Expr:
        if ast.free_variables(expr):
            raise CypherSemanticError(f"{what} must be a constant expression")
        if contains_aggregate(expr):
            raise CypherSemanticError(f"aggregates are not allowed in {what}")
        return expr

    def _aggregate_projection(
        self, plan: ops.Operator, named_items: list[tuple[str, ast.Expr]]
    ) -> ops.Operator:
        """Build γ + π for a projection containing aggregate calls.

        Grouping keys are the aggregate-free items (Cypher's rule); each
        aggregate call becomes an internal column, and the projection on top
        recombines them into the requested output expressions.
        """
        keys = [(name, expr) for name, expr in named_items if not contains_aggregate(expr)]
        specs: list[AggregateSpec] = []
        post_items: list[tuple[str, ast.Expr]] = []

        def extract(node: ast.Expr) -> ast.Expr:
            if is_aggregate_call(node):
                output = f"_agg{len(specs)}"
                if isinstance(node, ast.CountStar):
                    specs.append(AggregateSpec("count", None, False, output))
                else:
                    assert isinstance(node, ast.FunctionCall)
                    if len(node.args) != 1:
                        raise CypherSemanticError(
                            f"{node.name}() takes exactly one argument"
                        )
                    specs.append(
                        AggregateSpec(node.name, node.args[0], node.distinct, output)
                    )
                return ast.Variable(output)
            return node

        for name, expr in named_items:
            if not contains_aggregate(expr):
                post_items.append((name, ast.Variable(name)))
                continue
            rewritten = bottom_up(expr, extract)
            # Replace any subexpression equal to a grouping key with a
            # reference to that key's output column.
            for key_name, key_expr in keys:
                rewritten = substitute_subexpression(
                    rewritten, key_expr, ast.Variable(key_name)
                )
            allowed = {key_name for key_name, _ in keys}
            allowed |= {spec.output for spec in specs}
            stray = ast.free_variables(rewritten) - allowed
            if stray:
                raise CypherSemanticError(
                    "non-grouped variables in aggregate expression: "
                    + ", ".join(sorted(stray))
                )
            post_items.append((name, rewritten))

        aggregate = ops.Aggregate(plan, tuple(keys), tuple(specs))
        return ops.Project(aggregate, tuple(post_items))

    # -- entry ----------------------------------------------------------------

    def compile_query(self, query: ast.Query) -> ops.Operator:
        plan: ops.Operator | None = None
        for clause in query.clauses:
            if isinstance(clause, ast.MatchClause):
                plan = self._match(plan, clause)
            elif isinstance(clause, ast.UnwindClause):
                base = plan if plan is not None else ops.Unit()
                expr = self._prepare(clause.expression, base.schema)
                plan = ops.Unwind(base, expr, clause.alias)
            elif isinstance(clause, ast.WithClause):
                base = plan if plan is not None else ops.Unit()
                plan = self._projection(base, clause.body, clause.where)
            else:  # pragma: no cover - parser produces no other clause types
                raise CompilerError(f"unexpected clause {type(clause).__name__}")
        base = plan if plan is not None else ops.Unit()
        return self._projection(base, query.return_clause.body, None)


def compile_to_gra(query: ast.Query | UnionQuery) -> ops.Operator:
    """Compile a parsed query (or UNION of queries) to a GRA plan."""
    if isinstance(query, UnionQuery):
        plans = [GraCompiler().compile_query(q) for q in query.queries]
        plan = plans[0]
        for other in plans[1:]:
            plan = ops.Union(plan, other)
        if not query.all:
            plan = ops.Dedup(plan)
        return plan
    return GraCompiler().compile_query(query)
