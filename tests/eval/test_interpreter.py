"""Tests for the one-shot interpreter (baseline/oracle) across the query
fragment, plus stage-equivalence checks (GRA ≡ NRA ≡ FRA evaluation)."""

import pytest

from repro import PropertyGraph, QueryEngine
from repro.compiler import compile_query
from repro.errors import EvaluationError
from repro.eval import Interpreter, enumerate_trails
from repro.graph.values import ListValue, PathValue


@pytest.fixture
def graph():
    """Small social graph: 2 posts, 3 comments, 2 persons."""
    g = PropertyGraph()
    # posts 1, 2; comments 3, 4, 5; persons 6, 7
    g.add_vertex(labels=["Post"], properties={"lang": "en", "score": 10})
    g.add_vertex(labels=["Post"], properties={"lang": "de", "score": 5})
    g.add_vertex(labels=["Comm"], properties={"lang": "en"})
    g.add_vertex(labels=["Comm"], properties={"lang": "en"})
    g.add_vertex(labels=["Comm"], properties={"lang": "de"})
    g.add_vertex(labels=["Person"], properties={"name": "ann"})
    g.add_vertex(labels=["Person"], properties={"name": "bob"})
    g.add_edge(1, 3, "REPLY")
    g.add_edge(3, 4, "REPLY")
    g.add_edge(2, 5, "REPLY")
    g.add_edge(1, 6, "HAS_CREATOR")
    g.add_edge(2, 6, "HAS_CREATOR")
    g.add_edge(6, 7, "KNOWS")
    return g


@pytest.fixture
def engine(graph):
    return QueryEngine(graph)


def rows(engine, query, **params):
    return engine.evaluate(query, params or None).rows()


class TestBasicMatching:
    def test_label_scan(self, engine):
        assert rows(engine, "MATCH (p:Post) RETURN p") == [(1,), (2,)]

    def test_multi_label(self, graph, engine):
        graph.add_label(1, "Pinned")
        assert rows(engine, "MATCH (p:Post:Pinned) RETURN p") == [(1,)]

    def test_unlabelled_scan(self, engine):
        assert len(rows(engine, "MATCH (n) RETURN n")) == 7

    def test_property_filter(self, engine):
        assert rows(engine, "MATCH (p:Post) WHERE p.lang = 'en' RETURN p") == [(1,)]

    def test_pattern_property_map(self, engine):
        assert rows(engine, "MATCH (p:Post {lang: 'de'}) RETURN p") == [(2,)]

    def test_single_hop(self, engine):
        assert rows(engine, "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c") == [
            (1, 3),
            (2, 5),
        ]

    def test_reverse_direction(self, engine):
        assert rows(engine, "MATCH (c:Comm)<-[:REPLY]-(p:Post) RETURN p, c") == [
            (1, 3),
            (2, 5),
        ]

    def test_undirected(self, engine):
        found = rows(engine, "MATCH (c:Comm)-[:REPLY]-(x) RETURN c, x")
        assert (3, 1) in found and (3, 4) in found and (4, 3) in found

    def test_edge_variable(self, engine):
        result = rows(engine, "MATCH (a)-[e:KNOWS]->(b) RETURN e")
        assert len(result) == 1

    def test_type_alternatives(self, engine):
        result = rows(engine, "MATCH (a:Post)-[e:REPLY|HAS_CREATOR]->(b) RETURN b")
        assert len(result) == 4

    def test_chain_pattern(self, engine):
        assert rows(
            engine, "MATCH (p:Post)-[:REPLY]->(:Comm)-[:REPLY]->(c:Comm) RETURN p, c"
        ) == [(1, 4)]

    def test_cartesian_product(self, engine):
        result = rows(engine, "MATCH (a:Post), (b:Person) RETURN a, b")
        assert len(result) == 4

    def test_shared_variable_joins(self, engine):
        result = rows(
            engine,
            "MATCH (p:Post)-[:REPLY]->(c), (p)-[:HAS_CREATOR]->(who) RETURN p, c, who",
        )
        assert (1, 3, 6) in result

    def test_parameters(self, engine):
        assert rows(
            engine, "MATCH (p:Post) WHERE p.lang = $lang RETURN p", lang="de"
        ) == [(2,)]


class TestVarLength:
    def test_unbounded(self, engine):
        result = rows(engine, "MATCH (p:Post)-[:REPLY*]->(c) RETURN p, c")
        assert sorted(result) == [(1, 3), (1, 4), (2, 5)]

    def test_bounds(self, engine):
        assert rows(engine, "MATCH (p:Post)-[:REPLY*2..2]->(c) RETURN p, c") == [(1, 4)]

    def test_zero_hops_includes_source(self, engine):
        result = rows(engine, "MATCH (p:Post)-[:REPLY*0..1]->(x) RETURN p, x")
        assert (1, 1) in result and (1, 3) in result

    def test_path_value(self, engine):
        result = rows(engine, "MATCH t = (p:Post)-[:REPLY*2..2]->(c) RETURN t")
        (path,) = result[0]
        assert isinstance(path, PathValue)
        assert path.vertices == (1, 3, 4)

    def test_mixed_path(self, engine):
        result = rows(
            engine,
            "MATCH t = (who:Person)<-[:HAS_CREATOR]-(p:Post)-[:REPLY*]->(c:Comm) RETURN t",
        )
        vertices = {r[0].vertices for r in result}
        assert (6, 1, 3) in vertices and (6, 1, 3, 4) in vertices

    def test_edge_list_variable(self, engine):
        result = rows(engine, "MATCH (p:Post)-[es:REPLY*2..2]->(c) RETURN es")
        assert result == [(ListValue((1, 2)),)]

    def test_trail_semantics_no_repeated_edge(self):
        g = PropertyGraph()
        a = g.add_vertex(labels=["X"])
        b = g.add_vertex()
        g.add_edge(a, b, "T")
        g.add_edge(b, a, "T")
        engine = QueryEngine(g)
        result = rows(engine, "MATCH (s:X)-[:T*]->(x) RETURN x")
        # trails: a->b and a->b->a; never reuse an edge
        assert sorted(result) == [(a,), (b,)]

    def test_undirected_var_length(self, engine):
        result = rows(engine, "MATCH (c:Comm)-[:REPLY*]-(x) RETURN c, x")
        assert (4, 1) in result  # 4 —REPLY— 3 —REPLY— 1 traversed backwards


class TestTrailEnumeration:
    def test_diamond_counts_all_trails(self):
        g = PropertyGraph()
        a, b, c, d = (g.add_vertex() for _ in range(4))
        g.add_edge(a, b, "T")
        g.add_edge(a, c, "T")
        g.add_edge(b, d, "T")
        g.add_edge(c, d, "T")
        trails = list(enumerate_trails(g, a, ("T",), "out", 1, None))
        ends = [end for end, _ in trails]
        assert ends.count(d) == 2  # two distinct trails a→d

    def test_cycle_terminates(self):
        g = PropertyGraph()
        a, b = g.add_vertex(), g.add_vertex()
        g.add_edge(a, b, "T")
        g.add_edge(b, a, "T")
        trails = list(enumerate_trails(g, a, ("T",), "out", 1, None))
        assert len(trails) == 2

    def test_missing_vertex_yields_nothing(self):
        assert list(enumerate_trails(PropertyGraph(), 1, (), "out", 1, None)) == []


class TestProjectionsAndAggregates:
    def test_expressions_in_return(self, engine):
        assert rows(engine, "MATCH (p:Post) RETURN p.score * 2 AS s") == [(10,), (20,)]

    def test_count_star(self, engine):
        assert rows(engine, "MATCH (c:Comm) RETURN count(*) AS n") == [(3,)]

    def test_count_on_empty_is_zero(self, empty_engine):
        assert rows(empty_engine, "MATCH (c:Comm) RETURN count(*) AS n") == [(0,)]

    def test_grouped_count(self, engine):
        assert rows(
            engine, "MATCH (c:Comm) RETURN c.lang AS lang, count(*) AS n"
        ) == [("de", 1), ("en", 2)]

    def test_sum_avg_min_max(self, engine):
        assert rows(
            engine,
            "MATCH (p:Post) RETURN sum(p.score) AS s, avg(p.score) AS a, "
            "min(p.score) AS lo, max(p.score) AS hi",
        ) == [(15, 7.5, 5, 10)]

    def test_collect_distinct(self, engine):
        assert rows(
            engine, "MATCH (c:Comm) RETURN collect(DISTINCT c.lang) AS langs"
        ) == [(ListValue(("de", "en")),)]

    def test_aggregate_inside_expression(self, engine):
        assert rows(engine, "MATCH (c:Comm) RETURN count(*) + 1 AS n") == [(4,)]

    def test_distinct(self, engine):
        assert rows(engine, "MATCH (c:Comm) RETURN DISTINCT c.lang AS l") == [
            ("de",),
            ("en",),
        ]

    def test_labels_function(self, engine):
        assert rows(engine, "MATCH (p:Post) WHERE p.lang='en' RETURN labels(p) AS l") == [
            (ListValue(("Post",)),)
        ]

    def test_type_function(self, engine):
        assert rows(engine, "MATCH (:Person)-[e]->(:Person) RETURN type(e) AS t") == [
            ("KNOWS",)
        ]

    def test_properties_function(self, engine):
        (props,) = rows(engine, "MATCH (p:Post {lang:'de'}) RETURN properties(p) AS m")[0]
        assert props.to_dict() == {"lang": "de", "score": 5}

    def test_label_predicate_in_where(self, engine):
        assert len(rows(engine, "MATCH (n) WHERE n:Post RETURN n")) == 2


class TestReturnStar:
    def test_expands_to_pattern_variables_in_order(self, engine):
        assert rows(
            engine, "MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN *"
        ) == rows(
            engine, "MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN a, k, b"
        )

    def test_anonymous_pattern_variables_stay_hidden(self, engine):
        assert rows(
            engine, "MATCH (a:Person)-[:KNOWS]->(:Person) RETURN *"
        ) == rows(engine, "MATCH (a:Person)-[:KNOWS]->(:Person) RETURN a")

    def test_star_plus_explicit_items(self, engine):
        assert rows(engine, "MATCH (p:Person) RETURN *, p.name AS n") == rows(
            engine, "MATCH (p:Person) RETURN p, p.name AS n"
        )

    def test_with_star_carries_scope(self, engine):
        assert rows(
            engine,
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WITH *, p.lang AS l "
            "RETURN l, c",
        ) == rows(
            engine,
            "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS l, c",
        )

    def test_star_with_aggregate_groups_on_visible_columns(self, engine):
        assert rows(
            engine, "MATCH (c:Comm) WITH c.lang AS lang RETURN *, count(*) AS n"
        ) == [("de", 1), ("en", 2)]

    def test_registered_view_maintains_star_projection(self, graph):
        engine = QueryEngine(graph)
        view = engine.register("MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN *")
        assert view.rows() == [(6, 6, 7)]
        extra = graph.add_vertex(labels=["Person"], properties={"name": "cec"})
        graph.add_edge(7, extra, "KNOWS")
        assert sorted(view.rows()) == [(6, 6, 7), (7, 7, 8)]

    def test_star_without_scope_rejected(self, engine):
        from repro.errors import CypherSemanticError

        with pytest.raises(CypherSemanticError):
            engine.evaluate("RETURN *")
        with pytest.raises(CypherSemanticError):
            engine.evaluate("MATCH ()-[]->() RETURN *")


class TestOptionalMatchWithUnwind:
    def test_optional_match_padding(self, engine):
        result = rows(
            engine,
            "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(:Comm)-[:REPLY]->(c) RETURN p, c",
        )
        assert sorted(result, key=lambda r: r[0]) == [(1, 4), (2, None)]

    def test_optional_match_with_where(self, engine):
        result = rows(
            engine,
            "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) "
            "WHERE c.lang = p.lang RETURN p, c",
        )
        assert sorted(result, key=lambda r: r[0]) == [(1, 3), (2, 5)]

    def test_with_projection_and_filter(self, engine):
        assert rows(
            engine,
            "MATCH (p:Post) WITH p.score AS s WHERE s > 7 RETURN s",
        ) == [(10,)]

    def test_with_aggregation_then_filter(self, engine):
        assert rows(
            engine,
            "MATCH (p:Post)-[:REPLY*]->(c) WITH p, count(c) AS n WHERE n > 1 RETURN p, n",
        ) == [(1, 2)]

    def test_unwind_literal(self, engine):
        assert rows(engine, "UNWIND [3, 1, 2] AS x RETURN x") == [(1,), (2,), (3,)]

    def test_unwind_null_and_empty_produce_no_rows(self, engine):
        assert rows(engine, "UNWIND [] AS x RETURN x") == []
        assert rows(engine, "UNWIND null AS x RETURN x") == []

    def test_path_unwinding(self, engine):
        result = rows(
            engine,
            "MATCH t = (p:Post)-[:REPLY*2..2]->(c) UNWIND nodes(t) AS n RETURN n",
        )
        assert result == [(1,), (3,), (4,)]

    def test_union(self, engine):
        assert rows(
            engine,
            "MATCH (p:Post) RETURN p AS n UNION MATCH (q:Person) RETURN q AS n",
        ) == [(1,), (2,), (6,), (7,)]

    def test_union_all_keeps_duplicates(self, engine):
        result = rows(
            engine,
            "MATCH (p:Post) RETURN p.lang AS l UNION ALL MATCH (c:Comm) RETURN c.lang AS l",
        )
        assert sorted(result) == [("de",), ("de",), ("en",), ("en",), ("en",)]


class TestOrdering:
    def test_order_by(self, engine):
        assert rows(engine, "MATCH (p:Post) RETURN p.score AS s ORDER BY s DESC") == [
            (10,),
            (5,),
        ]

    def test_order_by_alias_and_expression(self, engine):
        assert rows(
            engine, "MATCH (p:Post) RETURN p.lang AS l ORDER BY p.lang"
        ) == [("de",), ("en",)]

    def test_skip_limit(self, engine):
        assert rows(
            engine, "MATCH (c:Comm) RETURN c ORDER BY c SKIP 1 LIMIT 1"
        ) == [(4,)]

    def test_limit_parameter(self, engine):
        assert len(rows(engine, "MATCH (n) RETURN n LIMIT $k", k=3)) == 3

    def test_top_k_pattern(self, engine):
        # the top-k query shape the paper's fragment excludes from IVM
        result = rows(
            engine,
            "MATCH (p:Post)-[:REPLY*]->(c) RETURN p, count(c) AS n "
            "ORDER BY n DESC LIMIT 1",
        )
        assert result == [(1, 2)]

    def test_mid_query_limit(self, engine):
        result = rows(
            engine,
            "MATCH (c:Comm) WITH c ORDER BY c LIMIT 2 MATCH (c)<-[:REPLY]-(x) RETURN c, x",
        )
        assert sorted(result) == [(3, 1), (4, 3)]

    def test_negative_limit_rejected(self, engine):
        with pytest.raises(EvaluationError):
            rows(engine, "MATCH (n) RETURN n LIMIT $k", k=-1)

    def test_ordered_result_flag(self, engine):
        assert engine.evaluate("MATCH (n) RETURN n ORDER BY n").ordered
        assert not engine.evaluate("MATCH (n) RETURN n").ordered


class TestStageEquivalence:
    """The lowering steps preserve semantics: evaluating the GRA, NRA and
    FRA trees of the same query gives identical bags."""

    QUERIES = [
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
        "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c.lang",
        "MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n",
        "MATCH (a:Person)<-[:HAS_CREATOR]-(p:Post)-[:REPLY*1..2]->(c) RETURN a, c",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_gra_nra_fra_agree(self, graph, query):
        compiled = compile_query(query)
        interpreter = Interpreter(graph)
        gra = interpreter.evaluate(compiled.gra)
        nra = interpreter.evaluate(compiled.nra)
        fra = interpreter.evaluate(compiled.fra)
        optimized = interpreter.evaluate(compiled.plan)
        assert gra == nra == fra == optimized


class TestResultTable:
    def test_records_and_scalar(self, engine):
        table = engine.evaluate("MATCH (p:Post {lang:'en'}) RETURN p.score AS s")
        assert table.records() == [{"s": 10}]
        assert table.scalar() == 10

    def test_single_raises_on_many(self, engine):
        with pytest.raises(ValueError):
            engine.evaluate("MATCH (p:Post) RETURN p").single()

    def test_to_text_renders_entities(self, engine):
        text = engine.evaluate("MATCH (p:Post) RETURN p").to_text()
        assert "(1:Post)" in text

    def test_multiset(self, engine):
        bag = engine.evaluate("MATCH (c:Comm) RETURN c.lang AS l").multiset()
        assert bag == {("en",): 2, ("de",): 1}
