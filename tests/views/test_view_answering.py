"""Answering one-shot queries from materialised views: the differential gate.

The central contract: ``evaluate(use_views=True)`` must be row-for-row
identical to ``evaluate(use_views=False)`` — across exact hits, listing
residuals over a view root, reads no root lists (which are recomputed),
parameter mismatches (which must fall back), mid-stream detach (stale
entries must never serve), and batched/rollback transaction windows
(in-flight state must never serve).  Random graphs and random update
streams drive the property form of the claim.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.compiler.fingerprint import fingerprint
from repro.workloads.random_graphs import random_graph, random_updates

#: registered view shapes over the random-graph schema
VIEW_QUERIES = [
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (a:Post)-[:REPLY]->(b:Comm) WHERE a.lang = b.lang RETURN a, b",
    "MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n",
    "MATCH (a)-[e:LIKES]->(b) WHERE e.score >= 2 RETURN a, b",
    "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c",
]

#: one-shot reads: exact hits, alpha-renamed hits, reads no root lists,
#: ordering residuals over a root, and guaranteed misses
READ_QUERIES = [
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (x:Post) WHERE x.lang = 'en' RETURN x",
    "MATCH (u:Post)-[:REPLY]->(v:Comm) WHERE u.lang = v.lang RETURN DISTINCT u",
    "MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n ORDER BY n DESC LIMIT 2",
    "MATCH (c:Comm) WITH c.lang AS l, count(*) AS n WHERE n > 1 RETURN l, n",
    "MATCH (a)-[e:LIKES]->(b) WHERE e.score >= 2 RETURN a, b ORDER BY a LIMIT 3",
    "MATCH (q:Person) RETURN q",
    "MATCH (a:Person)-[:KNOWS]-(b:Person) RETURN a, b",
]


def assert_answers_match(engine: QueryEngine, queries=READ_QUERIES) -> None:
    """The differential gate: view-answered ≡ full recomputation."""
    for query in queries:
        served = engine.evaluate(query, use_views=True).rows()
        direct = engine.evaluate(query, use_views=False).rows()
        assert served == direct, query


def small_engine(**kwargs) -> tuple[PropertyGraph, QueryEngine]:
    graph = PropertyGraph()
    engine = QueryEngine(graph, **kwargs)
    p1 = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    p2 = graph.add_vertex(labels=["Post"], properties={"lang": "de"})
    c1 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    c2 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(p1, c1, "REPLY")
    graph.add_edge(p2, c2, "REPLY")
    return graph, engine


class TestExactHits:
    def test_same_text_is_served_from_the_view_root(self):
        graph, engine = small_engine()
        query = "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
        view = engine.register(query)
        result = engine.evaluate(query)
        assert result.multiset() == view.multiset()
        assert result.rows() == engine.evaluate(query, use_views=False).rows()
        stats = engine.answer_stats()
        assert stats.exact == stats.answered == 1

    def test_alpha_renamed_query_hits_the_same_view(self):
        graph, engine = small_engine()
        engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
        )
        renamed = (
            "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang RETURN x, y"
        )
        assert (
            engine.evaluate(renamed).rows()
            == engine.evaluate(renamed, use_views=False).rows()
        )
        assert engine.answer_stats().exact == 1

    def test_served_reads_track_updates(self):
        graph, engine = small_engine()
        query = "MATCH (p:Post) WHERE p.lang = 'en' RETURN p"
        engine.register(query)
        for lang in ("en", "fr", "en", None):
            vertex = graph.add_vertex(labels=["Post"])
            if lang is not None:
                graph.set_vertex_property(vertex, "lang", lang)
            assert (
                engine.evaluate(query).rows()
                == engine.evaluate(query, use_views=False).rows()
            )
        assert engine.answer_stats().answered == 4


class TestResidualHits:
    def test_another_projection_of_a_view_is_recomputed(self):
        """A read over a view's subtree, not its root, is no listing read:
        the interpreter recomputes it, though views share that subtree."""
        graph, engine = small_engine()
        engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
        )
        read = (
            "MATCH (u:Post)-[:REPLY]->(v:Comm) WHERE u.lang = v.lang "
            "RETURN DISTINCT u"
        )
        assert (
            engine.evaluate(read).rows()
            == engine.evaluate(read, use_views=False).rows()
        )
        stats = engine.answer_stats()
        assert (stats.answered, stats.fallbacks) == (0, 1)
        assert "no covering view root" in engine.explain(read)

    def test_topk_over_maintained_aggregate(self):
        """Top-k is outside the maintainable fragment, but a maintained
        aggregate plus a small residual sort answers it."""
        graph, engine = small_engine()
        engine.register("MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n")
        read = (
            "MATCH (c:Comm) RETURN c.lang AS l, count(*) AS n "
            "ORDER BY n DESC LIMIT 1"
        )
        assert (
            engine.evaluate(read).rows()
            == engine.evaluate(read, use_views=False).rows()
        )
        stats = engine.answer_stats()
        assert stats.answered == 1 and stats.residual == 1

    def test_explain_reports_the_hit(self):
        graph, engine = small_engine()
        query = "MATCH (p:Post) WHERE p.lang = 'en' RETURN p"
        report = engine.explain(query)
        assert "no covering view" in report
        engine.register(query)
        report = engine.explain(query)
        assert "exact hit" in report and query in report
        # explain is pure: no answering counters moved
        assert engine.answer_stats().queries == 0


BOUND_VIEW = "MATCH (a:Post)-[:REPLY]->(b:Comm) WHERE a.lang = $lang RETURN a, b"

#: (registered view, its binding, one-shot read, served from a listing?)
#: for every kind of hit and for reads no root lists
ANSWERING_SHAPES = [
    (VIEW_QUERIES[0], None, READ_QUERIES[1], True),
    (VIEW_QUERIES[1], None, READ_QUERIES[2], False),
    (VIEW_QUERIES[2], None, READ_QUERIES[3], True),
    (BOUND_VIEW, {"lang": "en"}, BOUND_VIEW, True),
    (
        BOUND_VIEW,
        {"lang": "en"},
        "MATCH (a:Post)-[:REPLY]->(b:Comm) WHERE a.lang = $lang "
        "RETURN DISTINCT b",
        False,
    ),
]


class TestExplainAgreesWithEvaluate:
    """For every kind of read, explain reports a hit exactly when
    ``evaluate()`` serves one, and the result equals recomputation."""

    @pytest.mark.parametrize(
        "view, parameters, read, listed",
        ANSWERING_SHAPES,
        ids=["exact", "residual", "top-k", "binding", "binding-projection"],
    )
    def test_explain_matches_what_evaluate_does(self, view, parameters, read, listed):
        _, engine = small_engine()
        engine.register(view, parameters=parameters)
        answering = "== View answering ==\n"
        report = engine.explain(read, parameters).split(answering)[1]
        assert ("hit" in report) == listed, report
        assert engine.answer_stats().queries == 0  # explain is pure
        served = engine.evaluate(read, parameters).rows()
        stats = engine.answer_stats()
        assert stats.queries == 1 and stats.answered == int(listed)
        assert served == engine.evaluate(read, parameters, use_views=False).rows()


class TestParameterCompatibility:
    QUERY = "MATCH (p:Post) WHERE p.lang = $lang RETURN p"

    def test_matching_bindings_serve(self):
        graph, engine = small_engine()
        engine.register(self.QUERY, parameters={"lang": "en"})
        served = engine.evaluate(self.QUERY, {"lang": "en"})
        assert (
            served.rows()
            == engine.evaluate(self.QUERY, {"lang": "en"}, use_views=False).rows()
        )
        assert engine.answer_stats().answered == 1

    def test_mismatched_bindings_fall_back(self):
        graph, engine = small_engine()
        engine.register(self.QUERY, parameters={"lang": "en"})
        served = engine.evaluate(self.QUERY, {"lang": "de"})
        assert (
            served.rows()
            == engine.evaluate(self.QUERY, {"lang": "de"}, use_views=False).rows()
        )
        stats = engine.answer_stats()
        assert stats.answered == 0 and stats.fallbacks == 1

    def test_type_conflating_bindings_fall_back(self):
        """1 == True in Python, but a view bound at 1 must not serve True."""
        graph, engine = small_engine()
        query = "MATCH (p:Post) WHERE p.flag = $f RETURN p"
        graph.set_vertex_property(next(iter(graph.vertices("Post"))), "flag", True)
        engine.register(query, parameters={"f": 1})
        assert (
            engine.evaluate(query, {"f": True}).rows()
            == engine.evaluate(query, {"f": True}, use_views=False).rows()
        )
        assert engine.answer_stats().answered == 0


class TestStalenessGates:
    def test_mid_stream_detach_stops_serving_the_root(self):
        graph, engine = small_engine()
        query = "MATCH (p:Post) WHERE p.lang = 'en' RETURN p"
        view = engine.register(query)
        engine.evaluate(query)
        assert engine.answer_stats().answered == 1
        view.detach()
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        assert (
            engine.evaluate(query).rows()
            == engine.evaluate(query, use_views=False).rows()
        )
        assert engine.answer_stats().answered == 1  # second read fell back

    def test_open_batch_window_declines(self):
        graph, engine = small_engine()
        query = "MATCH (p:Post) WHERE p.lang = 'en' RETURN p"
        engine.register(query)
        with engine.batch():
            doomed = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
            # views are intentionally stale here; evaluate must not serve them
            inside = engine.evaluate(query)
            assert inside.rows() == engine.evaluate(
                query, use_views=False
            ).rows()
            assert engine.answer_stats().stale_declines >= 1
            graph.remove_vertex(doomed)
        # window closed: serving resumes, still oracle-equal
        before = engine.answer_stats().answered
        assert (
            engine.evaluate(query).rows()
            == engine.evaluate(query, use_views=False).rows()
        )
        assert engine.answer_stats().answered == before + 1

    def test_on_change_callbacks_never_see_half_propagated_state(self):
        """An on_change callback runs once its commit has reached every
        network, so evaluate() inside it is served from a sibling view and
        equals recomputation."""
        graph, engine = small_engine()
        count_query = "MATCH (p:Post) RETURN count(*) AS n"
        read_query = "MATCH (p:Post) RETURN p"
        watcher = engine.register(read_query)
        engine.register(count_query)
        seen: list[tuple[list, list]] = []

        def probe(delta):
            seen.append(
                (
                    engine.evaluate(count_query).rows(),
                    engine.evaluate(count_query, use_views=False).rows(),
                )
            )

        watcher.on_change(probe)
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        assert seen and all(served == direct for served, direct in seen)
        assert engine.answer_stats().stale_declines == 0

    def test_transaction_and_rollback_windows(self):
        graph = PropertyGraph()
        engine = QueryEngine(graph, batch_transactions=True)
        post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        query = "MATCH (p:Post) WHERE p.lang = 'en' RETURN p"
        engine.register(query)
        with graph.transaction():
            graph.add_vertex(labels=["Post"], properties={"lang": "en"})
            assert (
                engine.evaluate(query).rows()
                == engine.evaluate(query, use_views=False).rows()
            )
        assert engine.answer_stats().stale_declines >= 1
        # committed: serving resumes with the new row visible
        assert len(engine.evaluate(query).rows()) == 2
        try:
            with graph.transaction():
                graph.add_vertex(labels=["Post"], properties={"lang": "en"})
                raise RuntimeError("roll back")
        except RuntimeError:
            pass
        assert (
            engine.evaluate(query).rows()
            == engine.evaluate(query, use_views=False).rows()
        )
        assert len(engine.evaluate(query).rows()) == 2

    def test_detach_drops_every_subplan(self):
        graph, engine = small_engine()
        layer = engine._incremental.input_layer
        engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c"
        ).detach()
        assert layer.subplan_count == 0
        assert layer.node_count == 0

    @pytest.mark.parametrize("query", VIEW_QUERIES, ids=range(len(VIEW_QUERIES)))
    def test_a_detached_view_serves_nothing(self, query):
        """Once its only view leaves, a shape's root and subplans are gone:
        its reads fall back to recomputation, before and after writes."""
        graph, engine = small_engine()
        view = engine.register(query)
        stats = engine.answer_stats()
        engine.evaluate(query)
        assert stats.answered == 1
        view.detach()
        assert engine._incremental.input_layer.subplan_count == 0
        for lang in (None, "en", "de"):
            assert_answers_match(engine, [query])
            post = graph.add_vertex(labels=["Post"], properties={"lang": lang})
            comm = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
            graph.add_edge(post, comm, "REPLY")
            graph.add_edge(post, comm, "LIKES", {"score": 2})
        assert_answers_match(engine, [query])
        assert stats.answered == 1


class TestMechanics:
    def test_fingerprints_are_memoised_per_operator(self):
        graph, engine = small_engine()
        plan = engine.compile(VIEW_QUERIES[1]).plan
        first = fingerprint(plan)
        assert fingerprint(plan) is first  # cached object, not recomputed
        assert plan._fingerprint is first
        for child in plan.children:
            assert child._fingerprint is not None or fingerprint(child) is None

    def test_router_union_cache_hits_and_invalidates(self):
        graph, engine = small_engine()
        engine.register("MATCH (p:Post) RETURN p")
        router = engine._incremental.input_layer.router
        graph.add_vertex(labels=["Post"])
        assert ("vm", frozenset({"Post"})) in router._union_cache
        cached = router._union_cache[("vm", frozenset({"Post"}))]
        graph.add_vertex(labels=["Post"])
        # second identical event reuses the memoised candidate list
        assert router._union_cache[("vm", frozenset({"Post"}))] is cached
        engine.register("MATCH (c:Comm) RETURN c")  # new interests invalidate
        assert not router._union_cache
        # after invalidation, routing still reaches the right nodes
        graph.add_vertex(labels=["Post"])
        assert (
            engine.evaluate("MATCH (p:Post) RETURN p", use_views=False).rows()
            == engine.views[0].rows()
        )

    def test_router_union_cache_stays_bounded(self):
        """Data-dependent signatures (novel property keys, label sets)
        must not grow the cache for the engine's lifetime."""
        graph, engine = small_engine()
        engine.register("MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        router = engine._incremental.input_layer.router
        post = next(iter(graph.vertices("Post")))
        for index in range(50):
            graph.set_vertex_property(post, f"k{index}", index)  # novel keys
        # irrelevant-key events cached nothing beyond the bounded unions
        assert len(router._union_cache) <= router._UNION_CACHE_LIMIT
        assert not any(key == ("ev", "k7") for key in router._union_cache)

    @pytest.mark.parametrize(
        "arcs, trails",
        [
            (((0, 1), (1, 2), (0, 2)), (3, 2)),
            # a→b, a→c, c→d, b→d: four trails from a, three targets
            (((0, 1), (0, 2), (2, 3), (1, 3)), (4, 3)),
        ],
        ids=["triangle", "diamond"],
    )
    def test_transitive_views_are_served_as_trails(self, arcs, trails):
        """A maintained ⋈* holds one row per trail, as the interpreter
        does, so the catalog serves it: a count over the ⋈* sees every
        trail and a DISTINCT every target, registered and served alike,
        through deleting the last arc and adding it back."""
        graph = PropertyGraph()
        engine = QueryEngine(graph)
        vertices = [graph.add_vertex(labels=["P"])] + [
            graph.add_vertex(labels=["C"]) for _ in range(max(map(max, arcs)))
        ]
        edges = [graph.add_edge(vertices[t], vertices[h], "R") for t, h in arcs]
        match = "MATCH (p:P)-[:R*]->(x:C) "
        views = [
            engine.register(match + tail)
            for tail in ("RETURN p, x", "RETURN p, count(x)", "RETURN DISTINCT p, x")
        ]

        def check(count):
            assert views[1].multiset() == {(vertices[0], count): 1}
            for view in views:
                query = view.compiled.text
                direct = engine.evaluate(query, use_views=False)
                assert view.multiset() == direct.multiset()
                answered = engine.answer_stats().answered
                assert engine.evaluate(query).rows() == direct.rows()
                assert engine.answer_stats().answered == answered + 1

        check(trails[0])
        graph.remove_edge(edges[-1])
        check(trails[1])
        tail, head = arcs[-1]
        graph.add_edge(vertices[tail], vertices[head], "R")
        check(trails[0])


class TestRandomDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_streamed_updates_keep_served_reads_oracle_equal(self, seed):
        state = random_graph(vertices=15, edges=20, seed=seed)
        engine = QueryEngine(state.graph)
        for query in VIEW_QUERIES:
            engine.register(query)
        assert_answers_match(engine)
        step = 0
        for _ in random_updates(state, 120, seed=seed + 50):
            step += 1
            if step % 20 == 0:
                assert_answers_match(engine)
        assert_answers_match(engine)
        stats = engine.answer_stats()
        assert stats.answered > 0 and stats.fallbacks > 0

    def test_mid_stream_register_and_detach(self):
        rng = random.Random(7)
        state = random_graph(vertices=12, edges=18, seed=7)
        engine = QueryEngine(state.graph)
        live = []
        step = 0
        for _ in random_updates(state, 150, seed=57):
            step += 1
            if step % 12 == 0:
                if live and rng.random() < 0.5:
                    live.pop(rng.randrange(len(live))).detach()
                else:
                    live.append(
                        engine.register(rng.choice(VIEW_QUERIES))
                    )
            if step % 25 == 0:
                assert_answers_match(engine)
        assert_answers_match(engine)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_batched_transactions_stream(self, seed):
        state = random_graph(vertices=12, edges=18, seed=seed)
        engine = QueryEngine(state.graph, batch_transactions=True)
        for query in VIEW_QUERIES:
            engine.register(query)
        graph = state.graph
        rng = random.Random(seed + 9)
        updates = random_updates(state, 90, seed=seed + 77)
        done = False
        while not done:
            with graph.transaction():
                for _ in range(rng.randint(1, 6)):
                    if next(updates, None) is None:
                        done = True
                        break
                # inside the window: must decline and stay oracle-equal
                assert_answers_match(engine, READ_QUERIES[:3])
            assert_answers_match(engine, READ_QUERIES[:3])
        assert_answers_match(engine)
        assert engine.answer_stats().stale_declines > 0


#: (registered view, its bindings, one-shot read) over unbounded ⋈*:
#: exact, alpha-renamed and residual hits, every direction, a lower bound,
#: returned paths and a root built lifted over a binding partition
CLOSURE_SHAPES = [
    ("MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p, c", [None],
     "MATCH (x:Post)-[:REPLY*]->(y:Comm) RETURN x, y"),
    ("MATCH (p:Post)-[:REPLY*]->(c) RETURN p, count(c) AS n", [None],
     "MATCH (p:Post)-[:REPLY*]->(c) RETURN p, count(c) AS n"),
    ("MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p, c", [None],
     "MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN DISTINCT p, c"),
    ("MATCH (a:Person)<-[:KNOWS*]-(b) RETURN a, b", [None],
     "MATCH (a:Person)<-[:KNOWS*]-(b) RETURN a, b"),
    ("MATCH (a:Person)-[:KNOWS*]-(b:Person) RETURN DISTINCT a, b", [None],
     "MATCH (a:Person)-[:KNOWS*]-(b:Person) RETURN DISTINCT a, b"),
    ("MATCH (a)-[:LIKES*2..]->(b) RETURN a, b", [None],
     "MATCH (a)-[:LIKES*2..]->(b) RETURN a, b"),
    ("MATCH t = (p:Post)-[:REPLY*]->(c) RETURN t", [None],
     "MATCH t = (p:Post)-[:REPLY*]->(c) RETURN t"),
    ("MATCH (p:Post)-[:REPLY*]->(c) WHERE p.lang = $l RETURN p, c",
     [{"l": "en"}, {"l": "de"}],
     "MATCH (x:Post)-[:REPLY*]->(y) WHERE x.lang = $l RETURN x, y"),
]  # fmt: skip


class TestClosureDifferential:
    """Every maintained ⋈* holds the interpreter's bag of trails, so the
    catalog serves it: through a random stream, each view equals
    recomputation and each read is served and lists as recomputation does,
    per event, in coalesced transaction windows and with every
    instrument on."""

    @pytest.mark.parametrize(
        "view, bindings, read",
        CLOSURE_SHAPES,
        ids=[
            "exact", "count", "residual-distinct", "in", "both-distinct",
            "lower-bound", "path", "lifted-binding",
        ],
    )  # fmt: skip
    @pytest.mark.parametrize(
        "flags",
        [
            {},
            {"batch_transactions": True},
            {"collect_metrics": True, "trace_batches": True},
        ],
        ids=["default", "batched", "instrumented"],
    )
    def test_served_closures_equal_recomputation(self, flags, view, bindings, read):
        state = random_graph(vertices=14, edges=40, seed=3)
        graph = state.graph
        engine = QueryEngine(graph, **flags)
        views = [engine.register(view, parameters=each) for each in bindings]
        parameters = bindings[0]

        def check():
            for registered, each in zip(views, bindings):
                direct = engine.evaluate(view, each, use_views=False)
                assert registered.multiset() == direct.multiset()
            answered = engine.answer_stats().answered
            served = engine.evaluate(read, parameters).rows()
            assert served == engine.evaluate(read, parameters, use_views=False).rows()
            assert engine.answer_stats().answered == answered + 1

        check()
        rng = random.Random(43)
        updates = random_updates(state, 80, seed=43)
        done = False
        while not done:
            with graph.transaction():
                for _ in range(rng.randint(1, 8)):
                    if next(updates, None) is None:
                        done = True
                        break
            check()
