"""The generated expression code is legible, counted, and holds no graph.

``explain`` prints each σ/π's generated source under its operator line;
``metrics_snapshot()`` carries ``repro_expr_compiled_total`` and
``repro_expr_cache_hits_total``; repeated registrations of one template,
repeated ``evaluate()`` of one text and repeated ``execute()`` of one write
compile once; and after every view is detached nothing the memo holds
reaches a graph, a resolver or a context.
"""

import gc

from repro import PropertyGraph, QueryEngine
from repro.algebra.expressions import EvalContext, cache_stats
from repro.eval.interpreter import GraphResolver

TEMPLATE = (
    "MATCH (p:Post)-[:REPLY]->(c:Comment) "
    "WHERE p.lang = $lang AND c.len > $n RETURN p, c.len + $n AS m"
)
READ = "MATCH (p:Post) WHERE p.lang = 'en' AND p.len >= 2 RETURN p.len * 2 AS d"


def social_graph():
    graph = PropertyGraph()
    posts = [
        graph.add_vertex(["Post"], {"lang": lang, "len": i})
        for i, lang in enumerate(["en", "de", "en", "hu"])
    ]
    for i, post in enumerate(posts):
        comment = graph.add_vertex(["Comment"], {"len": i})
        graph.add_edge(post, comment, "REPLY")
    return graph


def compiled(engine):
    return engine.metrics_snapshot()["repro_expr_compiled_total"]["value"]


class TestCompileCountStopsGrowing:
    def test_fifty_bindings_of_one_template_compile_once(self):
        engine = QueryEngine(social_graph(), collect_metrics=True)
        # the first binding keeps the pushed-down plan; the second lifts
        # it and itself, and every later binding reuses the lifted shapes
        engine.register(TEMPLATE, parameters={"lang": "en", "n": 0})
        engine.register(TEMPLATE, parameters={"lang": "l0", "n": 0})
        after_second = compiled(engine)
        hits = cache_stats()["hits"]
        views = [
            engine.register(TEMPLATE, parameters={"lang": f"l{i}", "n": i % 3})
            for i in range(1, 49)
        ]
        assert compiled(engine) == after_second  # every later binding is a memo hit
        assert cache_stats()["hits"] > hits
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_expr_cache_hits_total"]["value"] == cache_stats()["hits"]
        assert len(views) == 48

    def test_fifty_evaluations_of_one_text_compile_once(self):
        engine = QueryEngine(social_graph(), collect_metrics=True)
        first = engine.evaluate(READ, use_views=False).multiset()
        after_first = compiled(engine)
        for _ in range(49):
            assert engine.evaluate(READ, use_views=False).multiset() == first
        assert compiled(engine) == after_first

    def test_fifty_executes_of_one_write_prepare_once(self):
        engine = QueryEngine(social_graph(), collect_metrics=True)
        write = (
            "MATCH (p:Post)-[:REPLY]->(c:Comment) WHERE p.lang = $lang "
            "SET c.len = c.len + $n RETURN c.len AS len ORDER BY len LIMIT 2"
        )
        engine.execute(write, {"lang": "en", "n": 0})
        hits = cache_stats()["hits"]
        for i in range(49):
            engine.execute(write, {"lang": "en", "n": i % 2})
        assert cache_stats()["hits"] == hits  # nothing is compiled per call
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_statements_prepared"]["value"] == 1


class TestTheMemoHoldsOnlyCode:
    def test_nothing_survives_detaching_everything(self):
        """The memo may keep source text and code objects keyed by AST and
        column layout (at most 4 096 shapes, least recently used dropped) —
        never the graph, resolver or context an expression was used with."""

        def live(kind):
            gc.collect()
            return sum(1 for o in gc.get_objects() if type(o) is kind)

        kinds = (PropertyGraph, GraphResolver, EvalContext)
        before = [live(kind) for kind in kinds]
        graph = social_graph()
        engine = QueryEngine(graph)
        views = [
            engine.register(TEMPLATE, parameters={"lang": lang, "n": 1})
            for lang in ("en", "de")
        ]
        engine.evaluate(READ)  # resolver-bearing functions are made per call
        engine.execute("MATCH (p:Post) WHERE p.lang = 'de' SET p.len = p.len + 1")
        assert [live(kind) for kind in kinds] != before
        for view in views:
            view.detach()
        del graph, engine, views, view
        assert [live(kind) for kind in kinds] == before


class TestExplainShowsGeneratedSource:
    def test_each_selection_and_projection_is_followed_by_its_code(self):
        engine = QueryEngine(social_graph())
        lines = engine.explain(TEMPLATE, {"lang": "en", "n": 1}).splitlines()
        plan = lines[lines.index("== Physical plan (optimised FRA) ==") :]
        operators = [i for i, line in enumerate(plan) if line.lstrip().startswith(("σ[", "π["))]
        assert len(operators) >= 3  # π, and the two pushed-down σ
        for i in operators:
            assert plan[i + 1].lstrip().startswith("│ def make(resolver):")
        text = "\n".join(plan)
        assert "_param(ctx.parameters, 'lang')" in text
        assert "def cols(columns, n, ctx):" in text
        # only the physical plan runs, so only it shows code
        assert "def make" not in "\n".join(lines[: lines.index(plan[0])])
