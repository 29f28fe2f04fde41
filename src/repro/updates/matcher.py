"""Per-row pattern matching for updating queries.

Updating queries execute over a *binding table* (the standard Cypher
model): each clause consumes the table a row at a time.  MATCH and MERGE
need to match a pattern **relative to one row's existing bindings** against
the *live* graph — unlike the compiled read pipeline, which evaluates whole
plans against a snapshot.  This module implements that per-row matcher:
a backtracking walk over the pattern's node/relationship elements using the
graph's adjacency indices.

Semantics mirror the read pipeline (and are differentially tested against
it): bag semantics, trails for variable-length segments (edge-distinct),
per-MATCH relationship uniqueness across all pattern parts, undirected
self-loops binding once.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..algebra.expressions import (
    CompiledExpr,
    EntityResolver,
    EvalContext,
    compile_expr,
)
from ..algebra.schema import AttrKind, Attribute, Schema
from ..cypher import ast
from ..errors import CypherSemanticError
from ..eval.interpreter import enumerate_trails
from ..graph.graph import PropertyGraph
from ..graph.values import ListValue, PathValue, cypher_eq


def binding_kind(element: ast.AstNode) -> AttrKind:
    """The schema kind a pattern element's variable binds to."""
    if isinstance(element, ast.NodePattern):
        return AttrKind.VERTEX
    assert isinstance(element, ast.RelationshipPattern)
    # A variable-length relationship variable is a *list* of edges.
    return AttrKind.VALUE if element.var_length else AttrKind.EDGE


def pattern_bindings(
    pattern: ast.Pattern, bound: frozenset[str]
) -> list[Attribute]:
    """New attributes the pattern introduces, in first-occurrence order."""
    seen = set(bound)
    out: list[Attribute] = []
    for part in pattern.parts:
        for attribute in part_bindings(part, frozenset(seen)):
            seen.add(attribute.name)
            out.append(attribute)
    return out


def part_bindings(part: ast.PatternPart, bound: frozenset[str]) -> list[Attribute]:
    """New attributes one pattern part introduces."""
    seen = set(bound)
    out: list[Attribute] = []
    for element in part.elements:
        variable = element.variable  # type: ignore[union-attr]
        if variable and variable not in seen:
            seen.add(variable)
            out.append(Attribute(variable, binding_kind(element)))
    if part.variable and part.variable not in seen:
        out.append(Attribute(part.variable, AttrKind.PATH))
    return out


class _PropertyTest:
    """A compiled ``{key: expr}`` map constraint on a node or edge."""

    def __init__(
        self,
        entries: tuple[tuple[str, ast.Expr], ...],
        schema: Schema,
        resolver: EntityResolver,
    ):
        self._tests: list[tuple[str, CompiledExpr]] = [
            (key, compile_expr(value, schema, resolver)) for key, value in entries
        ]

    @property
    def keys(self) -> list[str]:
        return [key for key, _ in self._tests]

    def value_of(self, key: str, row: tuple, ctx: EvalContext) -> Any:
        for candidate, fn in self._tests:
            if candidate == key:
                return fn(row, ctx)
        raise KeyError(key)

    def matches(
        self,
        properties_of,
        entity_id: int,
        row: tuple,
        ctx: EvalContext,
    ) -> bool:
        for key, value_fn in self._tests:
            expected = value_fn(row, ctx)
            if cypher_eq(properties_of(entity_id, key), expected) is not True:
                return False
        return True


class PatternMatcher:
    """Matches one :class:`~repro.cypher.ast.Pattern` per binding row.

    Compiled once per (pattern, input schema); :meth:`expand` streams the
    extended rows for one input row.  ``where`` (if given) is evaluated on
    the extended row under ternary logic.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        pattern: ast.Pattern,
        schema: Schema,
        resolver: EntityResolver,
        where: ast.Expr | None = None,
    ):
        self.graph = graph
        self.pattern = pattern
        self.input_schema = schema
        self.resolver = resolver
        new_attributes = pattern_bindings(pattern, frozenset(schema.names))
        self.output_schema = Schema(tuple(schema.attributes) + tuple(new_attributes))
        self.new_names = tuple(a.name for a in new_attributes)
        self._property_tests: dict[int, _PropertyTest] = {}
        for part in pattern.parts:
            for element in part.elements:
                if element.properties:  # type: ignore[union-attr]
                    self._property_tests[id(element)] = _PropertyTest(
                        element.properties,  # type: ignore[union-attr]
                        schema,
                        resolver,
                    )
        self._where = (
            compile_expr(where, self.output_schema, resolver)
            if where is not None
            else None
        )

    # -- public -------------------------------------------------------------

    def expand(self, row: tuple, ctx: EvalContext) -> Iterator[tuple]:
        """All extensions of *row* that match the whole pattern."""
        bindings = dict(zip(self.input_schema.names, row))
        for final in self._match_parts(0, bindings, frozenset(), row, ctx):
            extended = row + tuple(final[name] for name in self.new_names)
            if self._where is not None:
                if self._where(extended, ctx) is not True:
                    continue
            yield extended

    # -- part-by-part backtracking ----------------------------------------------

    def _match_parts(
        self,
        index: int,
        bindings: dict[str, Any],
        used_edges: frozenset[int],
        row: tuple,
        ctx: EvalContext,
    ) -> Iterator[dict[str, Any]]:
        if index == len(self.pattern.parts):
            yield bindings
            return
        part = self.pattern.parts[index]
        for extended, used in self._match_part(part, bindings, used_edges, row, ctx):
            yield from self._match_parts(index + 1, extended, used, row, ctx)

    def _match_part(
        self,
        part: ast.PatternPart,
        bindings: dict[str, Any],
        used_edges: frozenset[int],
        row: tuple,
        ctx: EvalContext,
    ) -> Iterator[tuple[dict[str, Any], frozenset[int]]]:
        elements = part.elements
        first = elements[0]
        assert isinstance(first, ast.NodePattern)
        for start in self._node_candidates(first, bindings, row, ctx):
            state = dict(bindings)
            if first.variable:
                state[first.variable] = start
            yield from self._walk(
                part, 1, start, (start,), (), state, used_edges, row, ctx
            )

    def _walk(
        self,
        part: ast.PatternPart,
        position: int,
        at: int,
        path_vertices: tuple[int, ...],
        path_edges: tuple[int, ...],
        bindings: dict[str, Any],
        used_edges: frozenset[int],
        row: tuple,
        ctx: EvalContext,
    ) -> Iterator[tuple[dict[str, Any], frozenset[int]]]:
        if position >= len(part.elements):
            if part.variable:
                bindings = dict(bindings)
                bindings[part.variable] = PathValue(path_vertices, path_edges)
            yield bindings, used_edges
            return
        relationship = part.elements[position]
        node = part.elements[position + 1]
        assert isinstance(relationship, ast.RelationshipPattern)
        assert isinstance(node, ast.NodePattern)
        if relationship.var_length:
            steps = self._var_length_steps(relationship, at, used_edges, row, ctx)
        else:
            steps = self._single_steps(relationship, at, bindings, used_edges, row, ctx)
        for edge_value, segment_edges, end in steps:
            if not self._node_accepts(node, end, bindings, row, ctx):
                continue
            state = dict(bindings)
            if relationship.variable:
                state[relationship.variable] = edge_value
            if node.variable and node.variable not in state:
                state[node.variable] = end
            yield from self._walk(
                part,
                position + 2,
                end,
                path_vertices + self._segment_vertices(segment_edges, at, end),
                path_edges + segment_edges,
                state,
                used_edges | set(segment_edges),
                row,
                ctx,
            )

    def _segment_vertices(
        self, segment_edges: tuple[int, ...], start: int, end: int
    ) -> tuple[int, ...]:
        """Intermediate + final vertices of a segment walked from *start*."""
        vertices: list[int] = []
        at = start
        for edge in segment_edges:
            source, target = self.graph.endpoints(edge)
            at = target if at == source else source
            vertices.append(at)
        if not segment_edges:  # zero-length (*0..) segment
            return ()
        assert vertices[-1] == end
        return tuple(vertices)

    # -- candidate enumeration ---------------------------------------------------

    def _node_candidates(
        self,
        node: ast.NodePattern,
        bindings: dict[str, Any],
        row: tuple,
        ctx: EvalContext,
    ) -> Iterator[int]:
        if node.variable and node.variable in bindings:
            candidate = bindings[node.variable]
            if candidate is not None and self._node_accepts(
                node, candidate, bindings, row, ctx, check_bound=False
            ):
                yield candidate
            return
        if node.labels:
            indexed = self._index_candidates(node, row, ctx)
            if indexed is not None:
                for vertex in indexed:
                    if self._node_accepts(
                        node, vertex, bindings, row, ctx, check_bound=False
                    ):
                        yield vertex
                return
            seed, *rest = node.labels
            for vertex in self.graph.vertices(seed):
                if all(self.graph.has_label(vertex, label) for label in rest):
                    if self._properties_ok(node, vertex, row, ctx, vertex_kind=True):
                        yield vertex
            return
        for vertex in list(self.graph.vertices()):
            if self._properties_ok(node, vertex, row, ctx, vertex_kind=True):
                yield vertex

    def _index_candidates(
        self, node: ast.NodePattern, row: tuple, ctx: EvalContext
    ) -> frozenset[int] | None:
        """Indexed candidate set for ``(n:Label {key: v})``, or None.

        Uses the first ``(label, key)`` pair covered by a store index;
        remaining labels/properties are verified by the caller.
        """
        test = self._property_tests.get(id(node))
        if test is None:
            return None
        for label in node.labels:
            for key in test.keys:
                if self.graph.has_index(label, key):
                    value = test.value_of(key, row, ctx)
                    if value is None:
                        return frozenset()  # {key: null} never matches
                    return self.graph.lookup_index(label, key, value)
        return None

    def _node_accepts(
        self,
        node: ast.NodePattern,
        vertex: int,
        bindings: dict[str, Any],
        row: tuple,
        ctx: EvalContext,
        check_bound: bool = True,
    ) -> bool:
        if check_bound and node.variable and node.variable in bindings:
            if bindings[node.variable] != vertex:
                return False
        if not self.graph.has_vertex(vertex):
            return False
        if any(not self.graph.has_label(vertex, label) for label in node.labels):
            return False
        return self._properties_ok(node, vertex, row, ctx, vertex_kind=True)

    def _properties_ok(
        self,
        element: ast.AstNode,
        entity: int,
        row: tuple,
        ctx: EvalContext,
        vertex_kind: bool,
    ) -> bool:
        test = self._property_tests.get(id(element))
        if test is None:
            return True
        lookup = (
            self.graph.vertex_property if vertex_kind else self.graph.edge_property
        )
        return test.matches(lookup, entity, row, ctx)

    def _single_steps(
        self,
        relationship: ast.RelationshipPattern,
        at: int,
        bindings: dict[str, Any],
        used_edges: frozenset[int],
        row: tuple,
        ctx: EvalContext,
    ) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """(edge value, segment edges, end vertex) for one-hop steps."""
        bound_edge = (
            bindings.get(relationship.variable) if relationship.variable else None
        )
        for edge, end in self._arcs(relationship, at):
            if edge in used_edges:
                continue
            if bound_edge is not None and edge != bound_edge:
                continue
            if not self._properties_ok(relationship, edge, row, ctx, vertex_kind=False):
                continue
            yield edge, (edge,), end

    def _arcs(
        self, relationship: ast.RelationshipPattern, at: int
    ) -> Iterator[tuple[int, int]]:
        types: tuple[str | None, ...] = relationship.types or (None,)
        direction = relationship.direction
        for edge_type in types:
            if direction in ("out", "both"):
                for edge in self.graph.out_edges(at, edge_type):
                    yield edge, self.graph.target_of(edge)
            if direction in ("in", "both"):
                for edge in self.graph.in_edges(at, edge_type):
                    source = self.graph.source_of(edge)
                    if direction == "both" and source == at:
                        continue  # self-loop already seen among out-edges
                    yield edge, source

    def _var_length_steps(
        self,
        relationship: ast.RelationshipPattern,
        at: int,
        used_edges: frozenset[int],
        row: tuple,
        ctx: EvalContext,
    ) -> Iterator[tuple[ListValue, tuple[int, ...], int]]:
        """(relationship list, segment edges, end) for var-length segments."""
        property_test = self._property_tests.get(id(relationship))
        for end, trail in enumerate_trails(
            self.graph,
            at,
            relationship.types,
            relationship.direction,
            relationship.min_hops,
            relationship.max_hops,
        ):
            if used_edges.intersection(trail.edges):
                continue
            if property_test is not None and not all(
                property_test.matches(self.graph.edge_property, e, row, ctx)
                for e in trail.edges
            ):
                continue
            yield ListValue(trail.edges), trail.edges, end


def check_no_bound_reuse_conflicts(
    pattern: ast.Pattern, bound: Mapping[str, AttrKind]
) -> None:
    """Reject reuse of a bound variable with an incompatible pattern role."""
    for part in pattern.parts:
        for element in part.elements:
            variable = element.variable  # type: ignore[union-attr]
            if not variable or variable not in bound:
                continue
            expected = binding_kind(element)
            actual = bound[variable]
            if actual is not expected:
                raise CypherSemanticError(
                    f"variable {variable!r} is bound to a {actual.value} but "
                    f"reused as a {expected.value} in the pattern"
                )
        if part.variable and part.variable in bound:
            raise CypherSemanticError(
                f"path variable {part.variable!r} is already bound"
            )
