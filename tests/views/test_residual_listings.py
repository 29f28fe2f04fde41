"""Residual reads served from a view's derived listings ≡ the reads they replace.

A σ / identity-π / δ chain over one view root, optionally topped by an
``ORDER BY`` on bare columns and ``SKIP`` / ``LIMIT``, is served as a slice
of a listing the root's production node maintains for exactly that spec:
no bag copy, no interpreter run, no sort.  None of that may be observable:

* every such read lists what the interpreter lists when it runs the same
  rewritten plan over the same materialisation (the path the catalog takes
  without derived listings) — same rows, same types, same order, ties
  included, and the same error when the predicate or a count raises;
* with a value pool Python equality does not conflate, every read also
  equals recomputation (``use_views=False``) row by row, in order;
* a detached view's production keeps no listing rows, and a production
  keeps at most ``LISTINGS_PER_PRODUCTION`` listings.

CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine
from repro.errors import EvaluationError
from repro.eval import Interpreter
from repro.rete.nodes.production import CANONICAL, LISTINGS_PER_PRODUCTION
from repro.views.matcher import rewrite_query
from repro.workloads.snb import SNB_QUERIES, generate_snb, update_stream

NAN = float("nan")
#: values Python equality conflates, a NaN, and lists that compare alike
HOSTILE = (1, True, 1.0, 0.0, -0.0, NAN, None, "a", [1], [True])
#: no two of these are ``==`` without being type-identical
PLAIN = (0, 1, 2, "a", "b", None)

VIEWS = (
    ("MATCH (n:N) RETURN n.v AS v, n.w AS w", None),
    ("MATCH (n:N) RETURN n.v AS v, count(*) AS c", None),
    ("MATCH (n:N) RETURN n.w AS w, n.v AS v", None),
)
ROWS = "MATCH (n:N) RETURN n.v AS v, n.w AS w"
WITH = "MATCH (n:N) WITH n.v AS v, n.w AS w "
COUNTS = "MATCH (n:N) RETURN n.v AS v, count(*) AS c"
FILTER = "MATCH (n:N) WITH n.w AS w, n.v AS v WHERE "
#: one entry per read shape the derived listings serve: (the index of the
#: view whose root serves it, query, parameters).  No root is read under
#: more specs than a production keeps listings, so the streams splice.
READS = (
    # orders: ASC/DESC mixes with ties, renamed identity π
    (0, ROWS + " ORDER BY v DESC, w", {}),
    (0, ROWS + " ORDER BY w, v DESC", {}),
    (0, WITH + "RETURN v AS a, w AS b ORDER BY b DESC", {}),
    (1, COUNTS + " ORDER BY c DESC, v LIMIT 2", {}),
    # SKIP/LIMIT at 0, past the end, and through $k
    (0, ROWS + " ORDER BY w, v DESC SKIP 1 LIMIT 3", {}),
    (0, ROWS + " ORDER BY v LIMIT 0", {}),
    (0, ROWS + " ORDER BY w DESC SKIP 100", {}),
    (0, ROWS + " SKIP $k", {"k": 2}),
    (0, ROWS + " ORDER BY v, w DESC LIMIT $k", {"k": 0}),
    (0, ROWS + " ORDER BY v, w DESC LIMIT $k", {"k": 4}),
    # σ: comparisons, IS NULL, AND/OR, a parameter, a predicate that raises
    (2, FILTER + "v > 0 RETURN w, v", {}),
    (2, FILTER + "v IS NULL RETURN w, v", {}),
    (2, FILTER + "v = 1 OR w IS NOT NULL AND v <> 'a' RETURN w, v", {}),
    (2, FILTER + "w = $y RETURN w, v", {"y": "a"}),
    (2, FILTER + "w = $y RETURN w, v", {"y": 1}),
    (2, FILTER + "w = $y RETURN w, v", {"y": True}),
    (2, FILTER + "size(w) > 0 RETURN w, v", {}),
    (1, "MATCH (n:N) WITH n.v AS v, count(*) AS c WHERE c > 1 RETURN v, c", {}),
    # δ, alone and under σ and ORDER BY
    (0, "MATCH (n:N) RETURN DISTINCT n.v AS v, n.w AS w", {}),
    (0, WITH + "WHERE v > 0 RETURN DISTINCT v, w ORDER BY w DESC LIMIT 2", {}),
)
MAX_VERTICES = 10


def typed(rows) -> list:
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


def outcome(read) -> tuple:
    """What a read shows: its ordering flag and typed rows, or its error."""
    try:
        table = read()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("rows", table.ordered, typed(table.rows()))


def interpreter_path(engine: QueryEngine, query: str, parameters):
    """The catalog's answer without derived listings: the rewritten plan run
    through the interpreter over the same materialisation."""
    rewrite = rewrite_query(engine.catalog, engine.compile(query), parameters)
    assert rewrite is not None, query
    return Interpreter(engine.graph, parameters).run(rewrite.plan)


def assert_read(engine: QueryEngine, query: str, parameters, plain: bool) -> None:
    served = outcome(lambda: engine.evaluate(query, parameters))
    recomputed = outcome(lambda: engine.evaluate(query, parameters, use_views=False))
    if engine._incremental.pending_changes():
        assert served == recomputed, query  # an open window: declined
        return
    assert served == outcome(lambda: interpreter_path(engine, query, parameters)), query
    if plain:  # which row raises first follows the bag's order: kinds only
        assert served[:2] == recomputed[:2], query
        assert served[0] == "error" or served == recomputed, query


def operations(values):
    return st.one_of(
        st.tuples(st.just("add"), values, values),
        st.tuples(st.just("set"), st.integers(0, 7), st.sampled_from("vw"), values),
        st.tuples(st.just("drop"), st.integers(0, 7)),
        st.tuples(st.just("cycle"), st.integers(0, len(VIEWS) - 1)),
        st.just(("read",)),
        # one read alone: a root's listings fall behind by different amounts
        st.tuples(st.just("read"), st.integers(0, len(READS) - 1)),
    )


def programs(values):
    one = operations(values)
    step = st.one_of(
        one,
        st.tuples(st.just("tx"), st.lists(one, max_size=5), st.booleans()),
        st.tuples(st.just("batch"), st.lists(one, max_size=5)),
    )
    return st.tuples(
        # the graph before the first step: listings big enough to splice into
        st.lists(st.tuples(values, values), max_size=6),
        st.lists(step, max_size=14),
        # after which step each view registers (past the end: at the end)
        st.lists(st.integers(0, 14), min_size=len(VIEWS), max_size=len(VIEWS)),
    )


class _Rollback(Exception):
    pass


class Stream:
    """Drives one engine through a drawn program, checking every read."""

    def __init__(self, batched: bool, plain: bool):
        self.graph = PropertyGraph()
        self.engine = QueryEngine(self.graph, batch_transactions=batched)
        self.plain = plain
        self.views: dict[int, object] = {}

    def register(self, index: int) -> None:
        query, parameters = VIEWS[index]
        self.views[index] = self.engine.register(query, parameters)

    def read(self, reads=READS) -> None:
        for root, query, parameters in reads:
            if root in self.views:  # else a fallback: not this module's
                assert_read(self.engine, query, parameters, self.plain)

    def op(self, op) -> None:
        graph = self.graph
        vertices = sorted(graph.vertices())
        kind = op[0]
        if kind == "read":
            self.read(READS[op[1] : op[1] + 1] if len(op) > 1 else READS)
        elif kind == "cycle":  # detach a live view and register it afresh
            if op[1] in self.views:
                self.views.pop(op[1]).detach()
                self.register(op[1])
        elif kind == "add":
            if len(vertices) < MAX_VERTICES:
                graph.add_vertex(labels=["N"], properties={"v": op[1], "w": op[2]})
        elif not vertices:
            return
        elif kind == "set":
            graph.set_vertex_property(vertices[op[1] % len(vertices)], op[2], op[3])
        elif kind == "drop":
            graph.remove_vertex(vertices[op[1] % len(vertices)], detach=True)

    def step(self, step) -> None:
        if step[0] == "tx":
            _, body, rollback = step
            try:
                with self.graph.transaction():
                    for op in body:
                        self.op(op)
                    if rollback:
                        raise _Rollback
            except _Rollback:
                pass
        elif step[0] == "batch":
            with self.engine.batch():
                for op in step[1]:
                    self.op(op)
        else:
            self.op(step)

    def run(self, program) -> None:
        initial, steps, register_after = program
        for v, w in initial:
            self.graph.add_vertex(labels=["N"], properties={"v": v, "w": w})
        pending = sorted(zip(register_after, range(len(VIEWS))))
        for index, step in enumerate(steps):
            while pending and pending[0][0] <= index:
                self.register(pending.pop(0)[1])
            self.step(step)
        for _, view in pending:
            self.register(view)
        self.read()


class TestServedReadsEqualTheInterpreterPath:
    @settings(max_examples=150, deadline=None)
    @given(batched=st.booleans(), program=programs(st.sampled_from(HOSTILE)))
    def test_hostile_values(self, batched, program):
        Stream(batched, plain=False).run(program)

    @settings(max_examples=150, deadline=None)
    @given(batched=st.booleans(), program=programs(st.sampled_from(PLAIN)))
    def test_plain_values(self, batched, program):
        Stream(batched, plain=True).run(program)

    def test_a_plain_stream_splices_derived_listings(self):
        rng = random.Random(11)
        stream = Stream(batched=False, plain=True)
        for index in range(len(VIEWS)):
            stream.register(index)
        for round_ in range(40):
            stream.op(("add", rng.choice(PLAIN), rng.choice(PLAIN)))
            stream.op(("set", rng.randrange(8), rng.choice("vw"), rng.choice(PLAIN)))
            if round_ % 3 == 2:
                stream.op(("drop", rng.randrange(8)))
            stream.read()
        productions = [view.network.production for view in stream.views.values()]
        assert sum(p.listing_splices for p in productions) > sum(
            p.listing_rebuilds for p in productions
        )


def engine_with_rows(*rows):
    graph = PropertyGraph()
    engine = QueryEngine(graph)
    for v, w in rows:
        graph.add_vertex(labels=["N"], properties={"v": v, "w": w})
    return graph, engine


class TestServingPath:
    def test_every_read_shape_is_a_residual_listing_answer(self):
        graph, engine = engine_with_rows((1, "a"), (2, "ab"), (2, "b"), (0, "a"), (1, "a"))
        for query, parameters in VIEWS:
            engine.register(query, parameters)
        for _, query, parameters in READS:
            assert_read(engine, query, parameters, plain=True)
        stats = engine.answer_stats()
        assert stats.fallbacks == 0 and stats.listing_answers == 0
        assert stats.residual_listing_answers == stats.residual == len(READS)

    def test_no_bag_copy_and_no_interpreter_run(self, monkeypatch):
        graph, engine = engine_with_rows((1, "a"), (2, "b"))
        for index in (0, 2):
            view = engine.register(VIEWS[index][0])
            view.network.production.multiset = None  # a bag copy would fail

        def run(*_):
            raise AssertionError("the interpreter ran")

        monkeypatch.setattr(Interpreter, "run", run)
        for root, query, parameters in READS:
            if root != 1:
                engine.evaluate(query, parameters)
        assert engine.answer_stats().residual_listing_answers == len(READS) - 2

    def test_one_change_note_per_changed_row_however_many_listings(self):
        graph, engine = engine_with_rows((1, "a"), (2, "b"))
        view = engine.register(ROWS)
        production = view.network.production
        view.rows()
        for _, query, parameters in READS[:3]:
            engine.evaluate(query, parameters)
        assert production._canonical is not None and len(production._derived) == 3
        before = len(production._log)
        graph.add_vertex(labels=["N"], properties={"v": 3, "w": "c"})
        assert len(production._log) == before + 1

    def test_listings_read_at_different_times_each_splice_their_changes(self):
        graph, engine = engine_with_rows(*[(v, "w%d" % v) for v in range(6)])
        production = engine.register(ROWS).network.production
        newest, filtered = ROWS + " ORDER BY v DESC LIMIT 2", WITH + "WHERE v > 2 RETURN v, w"
        vertices = sorted(graph.vertices())
        for step, (read, value) in enumerate(
            [(newest, 10), (filtered, 11), (filtered, 12), (newest, 1), (filtered, 13)]
        ):
            assert_read(engine, read, {}, plain=True)
            graph.set_vertex_property(vertices[step], "v", value)
        for read in (newest, filtered, ROWS):
            assert_read(engine, read, {}, plain=True)
        assert production.listing_rebuilds == 3  # one build per listing
        assert production.listing_splices > 0

    def test_returned_rows_are_copies(self):
        graph, engine = engine_with_rows((3, "a"), (1, "b"), (2, "c"))
        engine.register(ROWS)
        read = WITH + "WHERE v > 0 RETURN v, w"
        first = engine.evaluate(read)
        ordered = engine.evaluate(ROWS + " ORDER BY v DESC")
        graph.add_vertex(labels=["N"], properties={"v": 4, "w": "d"})
        assert engine.evaluate(read).rows() == [(1, "b"), (2, "c"), (3, "a"), (4, "d")]
        assert engine.evaluate(ROWS + " ORDER BY v DESC").rows()[0] == (4, "d")
        assert first.rows() == [(1, "b"), (2, "c"), (3, "a")]
        assert ordered.rows() == [(3, "a"), (2, "c"), (1, "b")]

    def test_a_raising_predicate_takes_the_interpreter_path(self):
        graph, engine = engine_with_rows((1, "ab"), (2, 7))
        view = engine.register(ROWS)
        production = view.network.production
        read = WITH + "WHERE size(w) > 0 RETURN v, w"
        with pytest.raises(EvaluationError) as served:
            engine.evaluate(read)
        with pytest.raises(EvaluationError) as direct:
            interpreter_path(engine, read, {})
        assert str(served.value) == str(direct.value)
        assert production.listing_rows == 0  # the failed listing is dropped
        assert engine.answer_stats().residual_listing_answers == 0
        (bad,) = [v for v in graph.vertices() if graph.vertex_property(v, "w") == 7]
        graph.set_vertex_property(bad, "w", "xyz")
        assert engine.evaluate(read).rows() == [(1, "ab"), (2, "xyz")]
        assert engine.answer_stats().residual_listing_answers == 1

    def test_a_bad_count_raises_the_interpreters_error(self):
        graph, engine = engine_with_rows((1, "a"))
        engine.register(ROWS)
        for k in (-1, True, "2"):
            read = ROWS + " SKIP $k"
            assert outcome(lambda: engine.evaluate(read, {"k": k})) == outcome(
                lambda: interpreter_path(engine, read, {"k": k})
            )

    def test_explain_names_the_listing_and_its_spec(self):
        graph, engine = engine_with_rows((1, "a"))
        engine.register(ROWS)
        text = engine.explain(WITH + "WHERE v > 0 RETURN DISTINCT v, w ORDER BY w DESC LIMIT 2")
        assert "residual hit: view[" in text
        assert (
            "served from the view's maintained listing: "
            "limit[2] ∘ sort[w DESC] ∘ δ ∘ σ[(v > 0)]" in text
        )
        assert "containment hit" not in text
        two_filters = WITH + "WHERE v > 0 WITH v, w WHERE w > 0 RETURN v, w"
        assert "containment hit" in engine.explain(two_filters)


class TestListingMemory:
    def test_gauges_sum_every_listing(self):
        graph, engine = engine_with_rows((1, "a"), (2, "b"), (3, "c"))
        view = engine.register(ROWS)
        production = view.network.production
        view.rows()
        engine.evaluate(WITH + "WHERE v > 1 RETURN v, w")
        engine.evaluate(ROWS + " ORDER BY v DESC LIMIT 1")
        assert production.listing_rows == 3 + 2 + 3
        assert production.listing_rebuilds == 3
        graph.add_vertex(labels=["N"], properties={"v": 4, "w": "d"})
        view.rows()
        engine.evaluate(WITH + "WHERE v > 1 RETURN v, w")
        assert (production.listing_splices, production.listing_rows) == (2, 4 + 3 + 3)

    def test_a_detached_views_production_holds_no_listing_rows(self):
        graph, engine = engine_with_rows((1, "a"), (2, "b"))
        views = [engine.register(query, parameters) for query, parameters in VIEWS]
        for _, query, parameters in READS:
            engine.evaluate(query, parameters)
        productions = [view.network.production for view in views]
        assert all(p.listing_rows > 0 for p in productions)
        for view in views:
            view.detach()
        assert sum(p.listing_rows for p in productions) == 0
        assert all(p._log is None for p in productions)
        graph.add_vertex(labels=["N"], properties={"v": 5, "w": "e"})  # noted nowhere
        assert all(p._log is None for p in productions)

    def test_listings_per_production_are_capped_least_recent_first(self):
        graph, engine = engine_with_rows((1, "a"), (2, "b"))
        view = engine.register(ROWS)
        production = view.network.production
        view.rows()
        read = WITH + "WHERE w = $y RETURN v, w"
        extra = 3
        for y in range(LISTINGS_PER_PRODUCTION + extra):
            assert_read(engine, read, {"y": y}, plain=True)
        assert len(production._derived) == LISTINGS_PER_PRODUCTION
        rebuilds = production.listing_rebuilds
        assert_read(engine, read, {"y": LISTINGS_PER_PRODUCTION + extra - 1}, plain=True)
        assert production.listing_rebuilds == rebuilds  # recent: kept
        assert_read(engine, read, {"y": 0}, plain=True)
        assert production.listing_rebuilds == rebuilds + 1  # oldest: evicted
        assert len(production._derived) == LISTINGS_PER_PRODUCTION
        assert production._canonical is not None  # outside the cap

    def test_many_changes_drop_derived_listings_too(self):
        graph, engine = engine_with_rows((1, "a"), (2, "b"))
        production = engine.register(ROWS).network.production
        engine.evaluate(ROWS + " ORDER BY v DESC")
        assert production.listing_rows == 2
        for value in range(3, 6):
            graph.add_vertex(labels=["N"], properties={"v": value, "w": "x"})
        assert production.listing_rows == 0 and production._log is None
        assert engine.evaluate(ROWS + " ORDER BY v DESC").rows()[0] == (5, "x")

    def test_the_canonical_listing_is_the_empty_spec(self):
        graph, engine = engine_with_rows((2, "b"), (1, "a"))
        view = engine.register(ROWS)
        assert view.rows() == [(1, "a"), (2, "b")]
        production = view.network.production
        assert production._canonical.spec == CANONICAL and not production._derived
        engine.evaluate(ROWS)  # an exact hit reads the very same listing
        assert production.listing_rebuilds == 1 and not production._derived


#: the snb.reads residual read classes, restated from the harness's inputs
SNB_READS = {
    "ic7_top3": (
        "MATCH (fan:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(auth:Person) "
        "RETURN auth.name AS author, count(*) AS likes "
        "ORDER BY likes DESC, author LIMIT 3"
    ),
    "ic5_top5": (
        "MATCH (f:Forum)-[:HAS_MEMBER]->(pe:Person)"
        "<-[:HAS_CREATOR]-(po:Post)<-[:CONTAINER_OF]-(f) "
        "RETURN f.title AS forum, count(*) AS posts "
        "ORDER BY posts DESC, forum LIMIT 5"
    ),
    "ic4_hot_tags": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)"
        "-[:HAS_TAG]->(t:Tag) "
        "WITH t.name AS tag, count(*) AS posts WHERE posts > 1 "
        "RETURN tag, posts"
    ),
    "ic8_busy": (
        "MATCH (c:Comment)-[:REPLY_OF]->(m:Post)-[:HAS_CREATOR]->(p:Person) "
        "WITH p.name AS author, count(*) AS replies WHERE replies > 6 "
        "RETURN author, replies"
    ),
}


class TestSnbReadClasses:
    def test_served_from_listings_and_equal_to_recomputation(self):
        net = generate_snb(persons=24, seed=3)
        engine = QueryEngine(net.graph)
        for name in ("ic7_likers", "ic5_forum_posts", "ic4_friend_tags", "ic8_replies"):
            engine.register(SNB_QUERIES[name])
        updates = update_stream(net, operations=40, seed=5)
        for round_ in range(41):
            for name, query in SNB_READS.items():
                served = engine.evaluate(query)
                direct = engine.evaluate(query, use_views=False)
                assert served.ordered == direct.ordered, name
                assert typed(served.rows()) == typed(direct.rows()), name
            stats = engine.answer_stats()
            assert stats.residual_listing_answers == 4 * (round_ + 1)
            assert stats.fallbacks == 0
            if round_ < 40:
                _, apply = next(updates)
                apply()
        productions = [view.network.production for view in engine.views]
        assert sum(p.listing_splices for p in productions) > 0
