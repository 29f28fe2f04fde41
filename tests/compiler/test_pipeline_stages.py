"""Tests for the compilation pipeline — including experiment E2: the
paper's §4 worked example, step by step."""

import pytest

from repro import PropertyGraph, QueryEngine
from repro.algebra import ops
from repro.algebra.fra import validate_fra
from repro.algebra.gra import validate_gra
from repro.algebra.nra import collect_unnests, validate_nra
from repro.compiler import compile_query
from repro.compiler.optimizer import split_conjuncts
from repro.cypher import ast
from repro.errors import (
    CypherSemanticError,
    UnsupportedFeatureError,
)
from repro.workloads.trainbenchmark import QUERIES

PAPER_QUERY = (
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) "
    "WHERE p.lang = c.lang "
    "RETURN p, t"
)


def operators_of(plan, kind):
    return [op for op in plan.walk() if isinstance(op, kind)]


class TestPaperExamplePipeline:
    """E2 — the paper's compilation steps (1)–(3) on the running example."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_query(PAPER_QUERY)

    def test_all_stages_validate(self, compiled):
        validate_gra(compiled.gra)
        validate_nra(compiled.nra)
        validate_fra(compiled.fra)
        validate_fra(compiled.plan)

    def test_step1_gra_uses_get_vertices_and_transitive_expand(self, compiled):
        get_vertices = operators_of(compiled.gra, ops.GetVertices)
        assert any(op.var == "p" and op.labels == ("Post",) for op in get_vertices)
        expands = operators_of(compiled.gra, ops.ExpandOut)
        assert len(expands) == 1
        expand = expands[0]
        assert expand.types == ("REPLY",)
        assert expand.var_length
        assert (expand.min_hops, expand.max_hops) == (1, None)
        assert expand.tgt_labels == ("Comm",)

    def test_step2_nra_replaces_expand_with_transitive_join(self, compiled):
        assert not operators_of(compiled.nra, ops.ExpandOut)
        transitive = operators_of(compiled.nra, ops.TransitiveJoin)
        assert len(transitive) == 1
        assert transitive[0].source == "p"
        assert transitive[0].target == "c"
        edges = transitive[0].edges
        assert edges.types == ("REPLY",)
        # label-free inside ⋈*; the Comm constraint is a companion ©
        assert edges.src_labels == () and edges.tgt_labels == ()
        assert any(
            op.var == "c" and op.labels == ("Comm",)
            for op in operators_of(compiled.nra, ops.GetVertices)
        )

    def test_step2_nra_has_explicit_unnests(self, compiled):
        outputs = {u.projection.output for u in collect_unnests(compiled.nra)}
        assert outputs == {"p.lang", "c.lang"}

    def test_step3_fra_pushes_properties_into_base_operators(self, compiled):
        assert not collect_unnests(compiled.fra)
        annotated = {
            op.var: {p.output for p in op.projections}
            for op in operators_of(compiled.fra, ops.GetVertices)
            if op.projections
        }
        # the paper's ©(p:Post{lang→pL}) and the Comm-side {lang→cL}
        assert annotated == {"p": {"p.lang"}, "c": {"c.lang"}}

    def test_output_columns(self, compiled):
        assert compiled.columns == ("p", "t")

    def test_fragment_membership(self, compiled):
        assert compiled.is_incremental

    def test_explain_mentions_every_stage(self, compiled):
        text = compiled.explain()
        for marker in ("GRA", "NRA", "FRA", "©", "⋈*", "{lang}"):
            assert marker in text


class TestFragmentBoundaries:
    def test_order_by_excluded_from_fragment(self):
        compiled = compile_query("MATCH (n:Post) RETURN n ORDER BY n")
        assert not compiled.is_incremental
        assert "ordering" in (compiled.incremental_reason or "").lower()

    def test_skip_and_limit_excluded(self):
        for clause in ("SKIP 1", "LIMIT 5"):
            compiled = compile_query(f"MATCH (n:Post) RETURN n {clause}")
            assert not compiled.is_incremental

    def test_mid_query_ordering_also_excluded(self):
        compiled = compile_query(
            "MATCH (n:Post) WITH n ORDER BY n LIMIT 3 RETURN n"
        )
        assert not compiled.is_incremental

    def test_bag_queries_are_in_fragment(self):
        for query in [
            "MATCH (n:Post) RETURN DISTINCT n",
            "MATCH (n:Post) RETURN count(*) AS c",
            PAPER_QUERY,
            "MATCH t = (p:Post)-[:REPLY*]->(c) UNWIND nodes(t) AS x RETURN x",
        ]:
            assert compile_query(query).is_incremental, query


class TestGraLowering:
    def test_multiple_parts_become_natural_join(self):
        compiled = compile_query("MATCH (a:X)-[:T]->(b), (b)-[:U]->(c) RETURN a, c")
        joins = operators_of(compiled.gra, ops.Join)
        assert joins  # parts joined on b

    def test_where_becomes_selection(self):
        compiled = compile_query("MATCH (a:X) WHERE a.k = 1 RETURN a")
        assert operators_of(compiled.gra, ops.Select)

    def test_optional_match_becomes_left_outer_join(self):
        compiled = compile_query(
            "MATCH (a:X) OPTIONAL MATCH (a)-[:T]->(b:Y) RETURN a, b"
        )
        assert operators_of(compiled.gra, ops.LeftOuterJoin)

    def test_distinct_becomes_dedup(self):
        compiled = compile_query("MATCH (a:X) RETURN DISTINCT a")
        assert operators_of(compiled.gra, ops.Dedup)

    def test_aggregation_becomes_gamma(self):
        compiled = compile_query("MATCH (a:X) RETURN a.k AS k, count(*) AS n")
        aggregates = operators_of(compiled.gra, ops.Aggregate)
        assert len(aggregates) == 1
        assert [name for name, _ in aggregates[0].keys] == ["k"]

    def test_pattern_properties_become_predicates(self):
        compiled = compile_query("MATCH (a:X {k: 1}) RETURN a")
        selects = operators_of(compiled.gra, ops.Select)
        assert selects

    def test_union_compiles(self):
        compiled = compile_query(
            "MATCH (a:X) RETURN a AS n UNION MATCH (b:Y) RETURN b AS n"
        )
        assert operators_of(compiled.gra, ops.Union)
        assert operators_of(compiled.gra, ops.Dedup)  # UNION deduplicates

    def test_leading_return_uses_unit(self):
        compiled = compile_query("RETURN 1 AS one")
        assert operators_of(compiled.gra, ops.Unit)

    def test_relationship_uniqueness_predicate_injected(self):
        compiled = compile_query("MATCH (a)-[e1:T]->(b)-[e2:T]->(c) RETURN a, c")
        selects = operators_of(compiled.gra, ops.Select)
        assert selects, "edge-uniqueness predicate expected"

    def test_cyclic_pattern_compiles(self):
        compiled = compile_query("MATCH (a:X)-[:T]->(a) RETURN a")
        assert operators_of(compiled.gra, ops.Select)


class TestSemanticErrors:
    def test_unbound_variable(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN b")

    def test_unbound_variable_in_where(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) WHERE b.k = 1 RETURN a")

    def test_rebound_relationship_variable(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a)-[e:T]->(b), (c)-[e:T]->(d) RETURN a")

    def test_rebound_path_variable(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH p = (a)-[:T]->(p) RETURN p")

    def test_aggregate_in_where_rejected(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) WHERE count(*) > 1 RETURN a")

    def test_nested_aggregate_rejected(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN count(sum(a.k)) AS nope")

    def test_non_grouped_variable_in_aggregate_expression(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN count(*) + a.k AS nope")

    def test_duplicate_return_names(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN a.k AS x, a.j AS x")

    def test_unknown_function(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN frobnicate(a) AS x")

    def test_labels_of_non_vertex(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a)-[e:T]->(b) RETURN labels(e) AS l")

    def test_type_of_non_edge(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN type(a) AS t")

    def test_property_of_path_rejected(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH p = (a)-[:T]->(b) RETURN p.length AS nope")

    def test_properties_on_var_length_rel_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            compile_query("MATCH (a)-[e:T* {w: 1}]->(b) RETURN a")

    def test_skip_requires_constant(self):
        with pytest.raises(CypherSemanticError):
            compile_query("MATCH (a:X) RETURN a SKIP a.k")


class TestRewrites:
    def test_id_function_rewritten_to_variable(self):
        compiled = compile_query("MATCH (a:X) RETURN id(a) AS i")
        assert compiled.columns == ("i",)

    def test_var_length_rel_variable_binds_edge_list(self):
        compiled = compile_query("MATCH (a:X)-[es:T*]->(b) RETURN es")
        assert compiled.columns == ("es",)

    def test_start_end_node_rewritten(self):
        compiled = compile_query("MATCH (a:X)-[e:T]->(b) RETURN startNode(e) AS s, endNode(e) AS t")
        assert compiled.columns == ("s", "t")

    def test_start_node_of_undirected_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            compile_query("MATCH (a)-[e:T]-(b) RETURN startNode(e) AS s")

    def test_keys_of_vertex_via_properties(self):
        compiled = compile_query("MATCH (a:X) RETURN keys(a) AS ks")
        assert compiled.is_incremental


class TestUniquenessConjuncts:
    """Relationship uniqueness is only asserted where it can fail."""

    @staticmethod
    def edge_inequalities(query):
        gra = compile_query(QUERIES.get(query, query)).gra
        return [
            conjunct
            for select in operators_of(gra, ops.Select)
            for conjunct in split_conjuncts(select.predicate)
            if isinstance(conjunct, ast.Comparison)
            and conjunct.ops == ("<>",)
            and all(isinstance(o, ast.Variable) and o.name.startswith("_e") for o in conjunct.operands)
        ]

    def test_disjointly_typed_hops_need_no_conjunct(self):
        # 11 hops = 55 pairs; 6 monitoredBy x 5 connectsTo of them cannot collide
        assert len(self.edge_inequalities("ConnectedSegments")) == 25
        # 6 hops = 15 pairs; only requires/requires and monitoredBy/monitoredBy can
        assert len(self.edge_inequalities("SemaphoreNeighbor")) == 2

    def test_untyped_and_overlapping_hops_keep_theirs(self):
        for pattern in ("(a)-[:A|B]->(b), (a)-[:B]->(b)", "(a)-[]->(b), (a)-[:B]->(b)"):
            query = f"MATCH {pattern} RETURN a, b"
            assert len(self.edge_inequalities(query)) == 1
            # one B edge could bind both hops; uniqueness says it may not
            graph = PropertyGraph()
            a, b = graph.add_vertex(), graph.add_vertex()
            graph.add_edge(a, b, "B")
            engine = QueryEngine(graph)
            view = engine.register(query)
            assert engine.evaluate(query).rows() == view.rows() == []
            graph.add_edge(a, b, "B")  # a second edge: two ways to pair them
            assert sorted(engine.evaluate(query).rows()) == sorted(view.rows()) == [(a, b)] * 2
        assert self.edge_inequalities("MATCH (a)-[:A]->(b), (a)-[:B]->(b) RETURN a") == []
