"""Pull-based plan interpreter: the non-incremental baseline and oracle.

Evaluates GRA, NRA or FRA plans directly against a
:class:`~repro.graph.graph.PropertyGraph` by full recomputation.  Three
roles in the reproduction:

* the **baseline** every benchmark compares the Rete engine against
  (re-evaluate after every update, as a system without IVM must),
* the **correctness oracle** for differential tests (incremental view
  contents must equal full recomputation after arbitrary update streams),
* the executor for queries *outside* the incrementally maintainable
  fragment (ORDER BY / SKIP / LIMIT), which the paper excludes from IVM
  but which one-shot evaluation supports.

Unlike the Rete network, this interpreter may also evaluate the nested
stages (µ unnests, GRA expands) — used by the stage-equivalence tests that
check the paper's claim that each lowering step preserves semantics.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..algebra import ops
from ..algebra.expressions import EntityResolver, EvalContext, compile_expr
from ..algebra.schema import Schema
from ..cypher import ast
from ..errors import EvaluationError
from ..graph.graph import PropertyGraph
from ..graph.values import ListValue, PathValue
from .projections import edge_projection_value, vertex_projection_value
from .results import ResultTable, canonical_order, sort_pass

Bag = dict[tuple, int]


def checked_count(value: Any) -> int:
    """A ``SKIP``/``LIMIT`` count's value, or the error openCypher requires."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise EvaluationError(f"SKIP/LIMIT must be a non-negative integer, got {value!r}")
    return value


def _add(bag: Bag, row: tuple, multiplicity: int) -> None:
    count = bag.get(row, 0) + multiplicity
    if count:
        bag[row] = count
    else:
        bag.pop(row, None)


def enumerate_trails(
    graph: PropertyGraph,
    start: int,
    types: tuple[str, ...],
    direction: str,
    min_hops: int,
    max_hops: int | None,
) -> Iterator[tuple[int, PathValue]]:
    """All trails (edge-distinct walks) from *start*, DFS order.

    Yields ``(end_vertex, path)`` for every trail with
    ``min_hops <= length <= max_hops``.  This is the reference semantics the
    incremental transitive-closure node must agree with.
    """
    if not graph.has_vertex(start):
        return
    if min_hops == 0:
        yield start, PathValue((start,), ())

    def arcs(vertex: int) -> Iterator[tuple[int, int]]:
        type_list: tuple[str | None, ...] = types if types else (None,)
        for edge_type in type_list:
            if direction in ("out", "both"):
                for edge in graph.out_edges(vertex, edge_type):
                    yield edge, graph.target_of(edge)
            if direction in ("in", "both"):
                for edge in graph.in_edges(vertex, edge_type):
                    source = graph.source_of(edge)
                    # An undirected pattern binds a relationship once: a
                    # self-loop already appeared in the out-edge iteration.
                    if direction == "both" and source == vertex:
                        continue
                    yield edge, source

    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(start, (start,), ())]
    while stack:
        vertex, vertices, edges = stack.pop()
        if max_hops is not None and len(edges) >= max_hops:
            continue
        for edge, nxt in arcs(vertex):
            if edge in edges:
                continue
            new_vertices = vertices + (nxt,)
            new_edges = edges + (edge,)
            if len(new_edges) >= min_hops:
                yield nxt, PathValue(new_vertices, new_edges)
            stack.append((nxt, new_vertices, new_edges))



class GraphResolver(EntityResolver):
    """Adapter giving expressions live graph access (property lookups,
    labels, types) when their rows carry bare entity ids."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph

    def vertex_property(self, vertex_id, key):
        return self.graph.vertex_property(vertex_id, key)

    def edge_property(self, edge_id, key):
        return self.graph.edge_property(edge_id, key)

    def vertex_labels(self, vertex_id):
        from .projections import labels_value

        return labels_value(self.graph.labels_of(vertex_id))

    def edge_type(self, edge_id):
        return self.graph.type_of(edge_id)

    def vertex_properties(self, vertex_id):
        from ..graph.values import MapValue

        return MapValue(self.graph.vertex_properties(vertex_id))

    def edge_properties(self, edge_id):
        from ..graph.values import MapValue

        return MapValue(self.graph.edge_properties(edge_id))


class Interpreter:
    """Evaluates a plan tree against a graph snapshot."""

    def __init__(
        self, graph: PropertyGraph, parameters: Mapping[str, Any] | None = None
    ):
        self.graph = graph
        self.ctx = EvalContext(dict(parameters or {}))
        self.resolver = GraphResolver(graph)

    def _compile(self, expr, schema):
        return compile_expr(expr, schema, self.resolver)

    # -- public entry ---------------------------------------------------------

    def run(self, plan: ops.Operator) -> ResultTable:
        """Evaluate *plan*; ordering operators at the top yield an ordered
        result, anything else a bag."""
        modifiers: list[ops.Operator] = []
        inner = plan
        while isinstance(inner, (ops.Sort, ops.Skip, ops.Limit)):
            modifiers.append(inner)
            inner = inner.children[0]
        if not modifiers:
            rows = self._expand(self.evaluate(plan))
            return ResultTable(plan.schema, rows, ordered=False, graph=self.graph)
        rows = self._canonical_rows(inner)
        for modifier in reversed(modifiers):
            if isinstance(modifier, ops.Sort):
                rows = self._sorted(rows, modifier, inner.schema)
            elif isinstance(modifier, ops.Skip):
                rows = rows[self._count_of(modifier.count) :]
            else:
                assert isinstance(modifier, ops.Limit)
                count = self._count_of(modifier.count)
                rows = rows[:count]
        return ResultTable(plan.schema, rows, ordered=True, graph=self.graph)

    def _count_of(self, expr: ast.Expr) -> int:
        return checked_count(self._compile(expr, Schema(()))((), self.ctx))

    def _expand(self, bag: Bag) -> list[tuple]:
        return [row for row, m in bag.items() for _ in range(m)]

    def _canonical_rows(self, op: ops.Operator) -> list[tuple]:
        """*op*'s rows expanded in canonical order, as a fresh list.

        A view root's scan already maintains exactly that list (type-exact
        to ``canonical_order`` of its expanded bag), so it is read, not
        re-derived.
        """
        if isinstance(op, ops.ViewScan) and op.listing is not None:
            return op.listing()
        return canonical_order(self._expand(self.evaluate(op)))

    def _sorted(
        self, rows: list[tuple], sort: ops.Sort, schema: Schema
    ) -> list[tuple]:
        compiled = [(self._compile(e, schema), asc) for e, asc in sort.items]
        ctx = self.ctx
        for fn, ascending in reversed(compiled):  # stable multi-key sort
            rows = sort_pass(rows, [fn(row, ctx) for row in rows], ascending)
        return rows

    # -- bag evaluation ---------------------------------------------------------

    def evaluate(self, op: ops.Operator) -> Bag:
        method = getattr(self, f"_eval_{type(op).__name__}", None)
        if method is None:
            raise EvaluationError(f"cannot interpret {type(op).__name__}")
        return method(op)

    def _eval_Unit(self, op: ops.Unit) -> Bag:
        return {(): 1}

    def _eval_ViewScan(self, op: ops.ViewScan) -> Bag:
        # The view-answering rewriter spliced this leaf in: read the live
        # materialisation instead of recomputing the subtree from the
        # graph.  ``source`` returns a fresh bag, safe to hand upstream.
        return op.source()

    def _eval_GetVertices(self, op: ops.GetVertices) -> Bag:
        graph = self.graph
        bag: Bag = {}
        seed = op.labels[0] if op.labels else None
        rest = op.labels[1:]
        for vertex in graph.vertices(seed):
            if rest and not all(graph.has_label(vertex, l) for l in rest):
                continue
            row = [vertex]
            for projection in op.projections:
                row.append(vertex_projection_value(graph, vertex, projection))
            _add(bag, tuple(row), 1)
        return bag

    def _edge_rows(self, op: ops.GetEdges) -> Iterator[tuple[int, int, int]]:
        graph = self.graph
        type_list: tuple[str | None, ...] = op.types if op.types else (None,)
        for edge_type in type_list:
            for s, e, t in graph.edge_triples(edge_type):
                yield s, e, t
                if not op.directed and s != t:
                    yield t, e, s

    def _eval_GetEdges(self, op: ops.GetEdges) -> Bag:
        graph = self.graph
        bag: Bag = {}
        for s, e, t in self._edge_rows(op):
            if op.src_labels and not all(graph.has_label(s, l) for l in op.src_labels):
                continue
            if op.tgt_labels and not all(graph.has_label(t, l) for l in op.tgt_labels):
                continue
            row = [s, e, t]
            for projection in op.projections:
                if projection.subject == op.edge:
                    row.append(edge_projection_value(graph, e, projection))
                elif projection.subject == op.src:
                    row.append(vertex_projection_value(graph, s, projection))
                else:
                    row.append(vertex_projection_value(graph, t, projection))
            _add(bag, tuple(row), 1)
        return bag

    def _eval_Select(self, op: ops.Select) -> Bag:
        child = self.evaluate(op.children[0])
        predicate = self._compile(op.predicate, op.children[0].schema)
        return {
            row: m for row, m in child.items() if predicate(row, self.ctx) is True
        }

    def _eval_Project(self, op: ops.Project) -> Bag:
        child = self.evaluate(op.children[0])
        fns = [self._compile(e, op.children[0].schema) for _, e in op.items]
        bag: Bag = {}
        for row, m in child.items():
            _add(bag, tuple(fn(row, self.ctx) for fn in fns), m)
        return bag

    def _eval_Dedup(self, op: ops.Dedup) -> Bag:
        return {row: 1 for row in self.evaluate(op.children[0])}

    def _eval_Unwind(self, op: ops.Unwind) -> Bag:
        child = self.evaluate(op.children[0])
        fn = self._compile(op.expression, op.children[0].schema)
        bag: Bag = {}
        for row, m in child.items():
            value = fn(row, self.ctx)
            if value is None:
                continue
            elements = list(value) if isinstance(value, ListValue) else [value]
            for element in elements:
                _add(bag, row + (element,), m)
        return bag

    def _eval_PropertyUnnest(self, op: ops.PropertyUnnest) -> Bag:
        child = self.evaluate(op.children[0])
        projection = op.projection
        subject_index = op.children[0].schema.index_of(projection.subject)
        subject_kind = op.children[0].schema.kind_of(projection.subject)
        graph = self.graph
        bag: Bag = {}
        from ..algebra.schema import AttrKind

        for row, m in child.items():
            entity = row[subject_index]
            if entity is None:
                value = None
            elif subject_kind is AttrKind.VERTEX:
                value = vertex_projection_value(graph, entity, projection)
            else:
                value = edge_projection_value(graph, entity, projection)
            _add(bag, row + (value,), m)
        return bag

    def _eval_Aggregate(self, op: ops.Aggregate) -> Bag:
        child_schema = op.children[0].schema
        child = self.evaluate(op.children[0])
        key_fns = [self._compile(e, child_schema) for _, e in op.keys]
        arg_fns = [
            self._compile(a.argument, child_schema) if a.argument is not None else None
            for a in op.aggregates
        ]
        groups: dict[tuple, list] = {}
        for row, m in child.items():
            key = tuple(fn(row, self.ctx) for fn in key_fns)
            state = groups.get(key)
            if state is None:
                state = [spec.make_aggregator() for spec in op.aggregates]
                groups[key] = state
            for aggregator, fn in zip(state, arg_fns):
                value = fn(row, self.ctx) if fn is not None else True
                aggregator.insert(value, m)
        if not op.keys and not groups:
            groups[()] = [spec.make_aggregator() for spec in op.aggregates]
        bag: Bag = {}
        for key, state in groups.items():
            _add(bag, key + tuple(a.result() for a in state), 1)
        return bag

    def _eval_Join(self, op: ops.Join) -> Bag:
        left_op, right_op = op.children
        left = self.evaluate(left_op)
        right = self.evaluate(right_op)
        left_key = [left_op.schema.index_of(n) for n in op.common]
        right_key = [right_op.schema.index_of(n) for n in op.common]
        extra = [
            i for i, a in enumerate(right_op.schema) if a.name not in op.common
        ]
        index: dict[tuple, list[tuple[tuple, int]]] = {}
        for row, m in right.items():
            index.setdefault(tuple(row[i] for i in right_key), []).append((row, m))
        bag: Bag = {}
        for row, m in left.items():
            for other, m2 in index.get(tuple(row[i] for i in left_key), ()):  # type: ignore[arg-type]
                _add(bag, row + tuple(other[i] for i in extra), m * m2)
        return bag

    def _eval_AntiJoin(self, op: ops.AntiJoin) -> Bag:
        left_op, right_op = op.children
        left = self.evaluate(left_op)
        right = self.evaluate(right_op)
        left_key = [left_op.schema.index_of(n) for n in op.common]
        right_key = [right_op.schema.index_of(n) for n in op.common]
        present = {tuple(row[i] for i in right_key) for row in right}
        return {
            row: m
            for row, m in left.items()
            if tuple(row[i] for i in left_key) not in present
        }

    def _eval_LeftOuterJoin(self, op: ops.LeftOuterJoin) -> Bag:
        left_op, right_op = op.children
        left = self.evaluate(left_op)
        right = self.evaluate(right_op)
        left_key = [left_op.schema.index_of(n) for n in op.common]
        right_key = [right_op.schema.index_of(n) for n in op.common]
        extra = [
            i for i, a in enumerate(right_op.schema) if a.name not in op.common
        ]
        index: dict[tuple, list[tuple[tuple, int]]] = {}
        for row, m in right.items():
            index.setdefault(tuple(row[i] for i in right_key), []).append((row, m))
        nulls = (None,) * len(extra)
        bag: Bag = {}
        for row, m in left.items():
            matches = index.get(tuple(row[i] for i in left_key))
            if matches:
                for other, m2 in matches:
                    _add(bag, row + tuple(other[i] for i in extra), m * m2)
            else:
                _add(bag, row + nulls, m)
        return bag

    def _eval_Union(self, op: ops.Union) -> Bag:
        left = self.evaluate(op.children[0])
        right = self.evaluate(op.children[1])
        bag = dict(left)
        for row, m in right.items():
            _add(bag, tuple(row[i] for i in op.right_permutation), m)
        return bag

    def _eval_TransitiveJoin(self, op: ops.TransitiveJoin) -> Bag:
        left_op = op.children[0]
        edges = op.edges
        left = self.evaluate(left_op)
        source_index = left_op.schema.index_of(op.source)
        emit_path = op.path_alias is not None
        bag: Bag = {}
        trail_cache: dict[int, list[tuple[int, PathValue]]] = {}
        for row, m in left.items():
            start = row[source_index]
            if start is None or not isinstance(start, int):
                continue
            if start not in trail_cache:
                trail_cache[start] = list(
                    enumerate_trails(
                        self.graph,
                        start,
                        edges.types,
                        op.direction,
                        op.min_hops,
                        op.max_hops,
                    )
                )
            for end, path in trail_cache[start]:
                out = row + ((end, path) if emit_path else (end,))
                _add(bag, out, m)
        return bag

    def _eval_ExpandOut(self, op: ops.ExpandOut) -> Bag:
        child_op = op.children[0]
        child = self.evaluate(child_op)
        graph = self.graph
        source_index = child_op.schema.index_of(op.src)
        bag: Bag = {}
        if op.var_length:
            for row, m in child.items():
                start = row[source_index]
                if start is None:
                    continue
                for end, path in enumerate_trails(
                    graph, start, op.types, op.direction, op.min_hops, op.max_hops
                ):
                    if op.tgt_labels and not all(
                        graph.has_label(end, l) for l in op.tgt_labels
                    ):
                        continue
                    out = row + (end,)
                    if op.path_alias is not None:
                        out += (path,)
                    _add(bag, out, m)
            return bag
        for row, m in child.items():
            start = row[source_index]
            if start is None:
                continue
            for end, path in enumerate_trails(
                graph, start, op.types, op.direction, 1, 1
            ):
                if op.tgt_labels and not all(
                    graph.has_label(end, l) for l in op.tgt_labels
                ):
                    continue
                _add(bag, row + (path.edges[0], end), m)
        return bag

    def _eval_Sort(self, op: ops.Sort) -> Bag:
        # Mid-plan Sort has no effect on bag semantics; ordering is applied
        # by run() (top level) or by Skip/Limit below.
        return self.evaluate(op.children[0])

    def _eval_Skip(self, op: ops.Skip) -> Bag:
        rows = self._ordered_rows(op.children[0])
        kept = rows[self._count_of(op.count) :]
        bag: Bag = {}
        for row in kept:
            _add(bag, row, 1)
        return bag

    def _eval_Limit(self, op: ops.Limit) -> Bag:
        rows = self._ordered_rows(op.children[0])
        kept = rows[: self._count_of(op.count)]
        bag: Bag = {}
        for row in kept:
            _add(bag, row, 1)
        return bag

    def _ordered_rows(self, op: ops.Operator) -> list[tuple]:
        """Rows of *op* in deterministic order for SKIP/LIMIT.

        An explicit Sort below SKIP/LIMIT defines the order; otherwise the
        canonical value order is used (openCypher leaves it unspecified;
        determinism keeps tests and benchmarks reproducible).
        """
        if isinstance(op, ops.Sort):
            rows = self._canonical_rows(op.children[0])
            return self._sorted(rows, op, op.children[0].schema)
        return self._canonical_rows(op)


def evaluate_plan(
    graph: PropertyGraph,
    plan: ops.Operator,
    parameters: Mapping[str, Any] | None = None,
) -> ResultTable:
    """One-shot evaluation of *plan* against *graph*."""
    return Interpreter(graph, parameters).run(plan)
