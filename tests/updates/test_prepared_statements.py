"""Prepared statements: what caching one ``execute`` text must not change.

``QueryEngine.execute`` parses and prepares each distinct write text once
and binds parameters per call.  Every test here compares a cached engine
against a fresh engine that parses and prepares every call
(:class:`~repro.updates.UpdateExecutor`), type-exactly: each property and
each view cell as ``(type name, repr)``, so ``1``, ``True``, ``1.0``,
``-0.0`` and NaN stay apart.
"""

import pytest

import repro.api
import repro.compiler.pipeline
from repro import PropertyGraph, QueryEngine
from repro.cypher.parser import parse
from repro.errors import CompilerError, CypherSemanticError
from repro.updates import UpdateExecutor

HOSTILE = [1, True, 1.0, -0.0, float("nan"), [1], None]

VIEWS = (
    "MATCH (n:N) RETURN n.v AS v",
    "MATCH (l:Log) RETURN l.v AS v, l.k AS k",
    "MATCH (n:N)-[:LOGGED]->(l:Log) RETURN n, count(l) AS c",
)


def exact(value):
    return (type(value).__name__, repr(value))


def graph_state(graph):
    def properties(props):
        return sorted((key, exact(value)) for key, value in props.items())

    vertices = sorted(
        (v, sorted(graph.labels_of(v)), properties(graph.vertex_properties(v)))
        for v in graph.vertices()
    )
    edges = sorted(
        (e, graph.endpoints(e), graph.type_of(e), properties(graph.edge_properties(e)))
        for e in graph.edges()
    )
    return vertices, edges


def view_state(views):
    return [sorted(tuple(map(exact, row)) for row in view.rows()) for view in views]


def seeded(**flags):
    graph = PropertyGraph()
    for i in range(3):
        graph.add_vertex(["N"], {"v": i, "k": i})
    engine = QueryEngine(graph, **flags)
    return engine, [engine.register(query) for query in VIEWS]


def uncached(engine, text, parameters=None):
    """One call the way a cache-free engine makes it: parse, prepare, run."""
    return UpdateExecutor(
        engine.graph, parameters, batcher=engine._update_batcher()
    ).execute(parse(text))


def assert_same(cached, cached_views, fresh, fresh_views):
    assert graph_state(cached.graph) == graph_state(fresh.graph)
    assert view_state(cached_views) == view_state(fresh_views)


WRITE = (
    "MATCH (n:N) WHERE n.k = 1 SET n.v = $x "
    "CREATE (n)-[:LOGGED]->(:Log {v: $x, k: n.k}) "
    "RETURN n.v AS v ORDER BY v"
)


@pytest.mark.parametrize("batch_transactions", [False, True])
class TestParametersBindPerCall:
    def test_hostile_parameter_sequence_matches_uncached_calls(self, batch_transactions):
        cached, cached_views = seeded(batch_transactions=batch_transactions)
        fresh, fresh_views = seeded(batch_transactions=batch_transactions)
        for value in HOSTILE:
            result = cached.execute(WRITE, {"x": value})
            expected = uncached(fresh, WRITE, {"x": value})
            assert [tuple(map(exact, r)) for r in result.rows()] == [
                tuple(map(exact, r)) for r in expected.rows()
            ]
            assert result.summary == expected.summary
            assert_same(cached, cached_views, fresh, fresh_views)

    def test_reentrant_trigger_runs_the_same_text_two_levels_deep(
        self, batch_transactions
    ):
        # the SET and RETURN read $level after the CREATE that fires the
        # trigger, so an inner run's parameters must not leak into them
        grow = (
            "MATCH (a:A {level: $level}) CREATE (a)-[:NEXT]->(b:A {level: $level + 1}) "
            "SET b.parent = $level RETURN b.level AS level, b.parent AS parent"
        )

        def build(execute):
            engine = QueryEngine(PropertyGraph(), batch_transactions=batch_transactions)
            levels = engine.register("MATCH (a:A) RETURN a.level AS level")
            chain = engine.register("MATCH (a:A)-[:NEXT]->(b:A) RETURN a, b, b.parent")
            results = []

            def react(delta):
                for (level,), multiplicity in sorted(delta.items()):
                    if multiplicity > 0 and 0 < level < 3:
                        run(level)

            def run(level):
                result = execute(engine, grow, {"level": level})
                results.append((level, result.rows(), result.summary))

            levels.on_change(react)
            engine.graph.add_vertex(["A"], {"level": 0})
            run(0)
            return engine, [levels, chain], results

        cached, cached_views, cached_results = build(
            lambda engine, text, params: engine.execute(text, params)
        )
        fresh, fresh_views, fresh_results = build(uncached)
        assert cached_results == fresh_results
        # a write made from a callback is the next commit, delivered by the
        # delivery loop's next round: level 2 runs after level 1 returns,
        # and both inside the delivery of level 0's first commit
        assert [(level, rows) for level, rows, _ in cached_results] == [
            (1, [(2, 1)]), (2, [(3, 2)]), (0, [(1, 0)])
        ]
        assert cached.evaluate(
            "MATCH (a:A) RETURN max(a.level) AS top", use_views=False
        ).rows() == [(3,)]
        assert_same(cached, cached_views, fresh, fresh_views)


class TestPreparationFailures:
    @pytest.mark.parametrize(
        "text, error",
        [
            ("CREATE (a:N) WITH a UNWIND [1] AS a RETURN a", CypherSemanticError),
            (
                "MATCH (n:N) SET n.v = 2 WITH n.v AS v, n.k AS v RETURN v",
                CypherSemanticError,
            ),
            ("CREATE (a:N) WITH a MATCH (n:N) DELETE n.v", CypherSemanticError),
            ("MATCH (n:N) CREATE (n)-[:R*]->(:M)", CypherSemanticError),
            ("CREATE (a:N) WITH a MATCH (b) WHERE c.v = 1 RETURN b", CompilerError),
        ],
    )
    def test_not_cached_same_error_graph_untouched(self, text, error):
        engine, views = seeded(collect_metrics=True)
        events = []
        for view in views:
            view.on_change(events.append)
        before = (graph_state(engine.graph), view_state(views))
        messages = set()
        for _ in range(3):
            with pytest.raises(error) as raised:
                engine.execute(text)
            messages.add(str(raised.value))
            snapshot = engine.metrics_snapshot()
            assert snapshot["repro_statements_prepared"]["value"] == len(VIEWS)
        assert len(messages) == 1
        assert (graph_state(engine.graph), view_state(views)) == before
        assert events == []  # it raised before any write


class TestEntityKindReuse:
    """A variable bound to an edge is no vertex, and a vertex no edge: a
    write statement that reuses one as the other is rejected before any
    write, as a read is, instead of reading the id as the other kind."""

    @pytest.mark.parametrize(
        "text",
        [
            "MATCH ()-[r:K]->() MATCH (r)-[:K]->(x) SET x.v = 1",
            "MATCH (n:P) MATCH ()-[n]->() SET n.v = 2",
            "MATCH ()-[r:K]->() CREATE (r)-[:K]->(x:New)",
            "MATCH ()-[r:K]->() MERGE (r)-[:K]->(x:New)",
            "MATCH (n:P) WITH n MATCH ()-[n]->() DELETE n",
        ],
    )
    def test_rejected_before_any_write(self, text):
        graph = PropertyGraph()
        a, b = graph.add_vertex(["P"]), graph.add_vertex(["P"])
        graph.add_edge(a, b, "K")
        engine = QueryEngine(graph)
        before = graph_state(graph)
        with pytest.raises(CypherSemanticError, match="reused as"):
            engine.execute(text)
        assert graph_state(graph) == before


class TestPerRowChecksStayPerRow:
    @pytest.mark.parametrize(
        "text, error",
        [
            ("MATCH (n:N) WHERE n.k = $k SET n.v = undefined", CompilerError),
            ("MATCH (n:N) WHERE n.k = $k SET m.v = 1", CypherSemanticError),
            ("MATCH (n:N) WHERE n.k = $k SET m:Tag", CypherSemanticError),
            ("MATCH (n:N) WHERE n.k = $k SET m += {a: 1}", CypherSemanticError),
            ("MATCH (n:N) WHERE n.k = $k REMOVE m.v", CypherSemanticError),
            ("MATCH (n:N) WHERE n.k = $k REMOVE m:N", CypherSemanticError),
            (
                "MATCH (n:N) WHERE n.k = $k MERGE (t:T) ON CREATE SET t.v = nope",
                CompilerError,
            ),
        ],
    )
    def test_zero_rows_raise_nothing_a_row_raises(self, text, error):
        engine, views = seeded()
        before = graph_state(engine.graph)
        for _ in range(2):
            assert engine.execute(text, {"k": 99}).summary.contains_updates is False
        assert graph_state(engine.graph) == before
        with pytest.raises(error):
            engine.execute(text, {"k": 1})
        assert graph_state(engine.graph) == before


class TestIndexesAreReadAtRunTime:
    def test_index_created_after_first_execute_is_used_next(self):
        text = "MATCH (n:N {k: $k}) SET n.v = $v"
        cached, cached_views = seeded()
        fresh, fresh_views = seeded()
        probes = []
        lookup = cached.graph.lookup_index
        cached.graph.lookup_index = lambda *args: probes.append(args) or lookup(*args)

        cached.execute(text, {"k": 1, "v": "a"})
        uncached(fresh, text, {"k": 1, "v": "a"})
        assert probes == []
        for engine in (cached, fresh):
            engine.graph.create_index("N", "k")
        cached.execute(text, {"k": 2, "v": "b"})
        uncached(fresh, text, {"k": 2, "v": "b"})
        assert probes == [("N", "k", 2)]
        assert_same(cached, cached_views, fresh, fresh_views)


class TestEachTextIsParsedOnce:
    def test_fifty_executes_parse_one_write_and_one_read_once_each(self, monkeypatch):
        engine, _ = seeded()
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(repro.api, "parse", counting)
        monkeypatch.setattr(repro.compiler.pipeline, "parse", counting)
        write = "MATCH (n:N) WHERE n.k = $k SET n.v = $v"
        read = "MATCH (n:N) WHERE n.v = $v RETURN n.k AS k"
        for i in range(50):
            engine.execute(write, {"k": i % 3, "v": i})
            assert engine.execute(read, {"v": i}).rows() == [(i % 3,)]
        assert sorted(parsed) == sorted([write, read])
        engine.compile(read)  # compile() shares the one cache
        assert len(parsed) == 2
