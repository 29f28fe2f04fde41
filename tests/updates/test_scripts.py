"""Multi-statement scripts: parsing, sequencing, atomicity."""

import pytest

from repro import PropertyGraph, QueryEngine
from repro.cypher import ast
from repro.cypher.parser import parse_script
from repro.errors import CypherSyntaxError, DanglingEdgeError


@pytest.fixture
def engine():
    return QueryEngine(PropertyGraph())


class TestParseScript:
    def test_splits_statements(self):
        statements = parse_script(
            "CREATE (a:X); MATCH (a:X) RETURN a; MATCH (a:X) DELETE a"
        )
        assert len(statements) == 3
        assert isinstance(statements[0], ast.UpdatingQuery)
        assert isinstance(statements[1], ast.Query)
        assert isinstance(statements[2], ast.UpdatingQuery)

    def test_tolerates_stray_semicolons(self):
        statements = parse_script(";;CREATE (a:X);;  ;")
        assert len(statements) == 1

    def test_empty_script_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse_script("  ;;  ")

    def test_union_inside_script(self):
        statements = parse_script(
            "MATCH (a:X) RETURN a UNION MATCH (b:Y) RETURN b AS a; CREATE (c:Z)"
        )
        assert len(statements) == 2


class TestExecuteScript:
    def test_statements_see_prior_writes(self, engine):
        results = engine.execute_script(
            """
            CREATE (p:Post {lang: 'en'});
            MATCH (p:Post) SET p.lang = 'de';
            MATCH (p:Post) RETURN p.lang AS lang;
            """
        )
        assert len(results) == 3
        assert results[2].rows() == [("de",)]

    def test_returns_one_result_per_statement(self, engine):
        results = engine.execute_script("CREATE (a:X); CREATE (b:X)")
        assert [r.summary.nodes_created for r in results] == [1, 1]

    def test_failure_rolls_back_whole_script(self, engine):
        view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        engine.execute("CREATE (a:Post {lang: 'en'})-[:R]->(b:Other)")
        with pytest.raises(DanglingEdgeError):
            engine.execute_script(
                "CREATE (x:Post {lang: 'xx'}); "
                "MATCH (p:Post {lang: 'en'}) DELETE p"
            )
        assert view.rows() == [("en",)]
        assert engine.graph.vertex_count == 2

    def test_read_only_script(self, engine):
        engine.execute("CREATE (a:X {v: 1}), (b:X {v: 2})")
        results = engine.execute_script(
            "MATCH (a:X) RETURN count(*) AS n; MATCH (a:X) RETURN a.v AS v"
        )
        assert results[0].rows() == [(2,)]
        assert sorted(results[1].rows()) == [(1,), (2,)]
        assert not any(r.summary.contains_updates for r in results)

    def test_script_drives_views_incrementally(self, engine):
        view = engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c"
        )
        engine.execute_script(
            """
            CREATE (p:Post {lang: 'en'});
            MATCH (p:Post) CREATE (p)-[:REPLY]->(c:Comm {lang: 'en'});
            """
        )
        assert len(view.rows()) == 1

    def test_parameters_shared_across_statements(self, engine):
        results = engine.execute_script(
            "CREATE (p:Post {lang: $lang}); MATCH (p:Post) RETURN p.lang AS l",
            parameters={"lang": "hu"},
        )
        assert results[1].rows() == [("hu",)]

    @pytest.mark.parametrize("value", [1, True, 1.0, -0.0, float("nan"), [1], None])
    def test_read_results_equal_evaluate_of_the_same_text(self, value):
        """Script reads compile from their parsed statements; each result
        equals ``evaluate`` of that statement's text type-exactly, with a
        second engine following the same writes one statement at a time."""
        statements = [
            "CREATE (:P {v: $x, k: 1}), (:P {v: 2.0, k: 2})",
            "MATCH (p:P) RETURN p.v AS v, p.k AS k ORDER BY k",
            "MATCH (p:P) WHERE p.v = $x RETURN count(*) AS c, collect(p.k) AS ks",
            "MATCH (p:P {k: 1}) SET p.w = [$x, $x]",
            "MATCH (p:P) RETURN p.k AS k, p.w AS w, $x AS x ORDER BY k DESC SKIP 0",
            "MATCH (p:P) RETURN DISTINCT labels(p) AS l, p.k > 1 AS big",
        ]
        parameters = {"x": value}
        scripted = QueryEngine(PropertyGraph())
        stepped = QueryEngine(PropertyGraph())
        results = scripted.execute_script("; ".join(statements), parameters)

        def exact(table):
            return table.columns, [
                tuple((type(cell).__name__, repr(cell)) for cell in row)
                for row in table.rows()
            ]

        for text, result in zip(statements, results):
            if result.table is None:
                stepped.execute(text, parameters)
            else:
                expected = stepped.evaluate(text, parameters)
                assert exact(result.table) == exact(expected)
