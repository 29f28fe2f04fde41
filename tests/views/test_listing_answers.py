"""Reads served from maintained state ≡ the reads they replace.

``evaluate()`` serves an exact hit on a view root straight from the
production node's canonical listing, ``ORDER BY`` / ``SKIP`` / ``LIMIT``
and σ/δ over a root from a derived listing (``test_residual_listings.py``
covers those in depth), and memoises the catalog match until the next view
register/detach.  None of that may be observable:

* every served read lists exactly what the expand-and-sort path lists over
  the same materialisation — same rows, same types, same order, NaN
  included;
* with a value pool Python equality does not conflate, every served read
  equals ``evaluate(use_views=False)`` row by row, in order, by
  ``(type name, repr)``; with ``1``/``True``/``1.0``/NaN/lists the
  stored-versus-recomputed typing of ``==``-equal values is a known,
  separate gap, so there unordered reads are compared as ``==`` bags;
* the memo never serves a plan or a node that is no longer there.

CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine
from repro.compiler import compile_query
from repro.eval import Interpreter
from repro.graph.values import PathValue
from repro.views import catalog as catalog_module

from .materialised import over_the_materialisation

NAN = float("nan")
#: values Python equality conflates, a NaN, and lists and path-valued
#: properties that compare alike under different sort keys
HOSTILE = (
    1, True, 1.0, NAN, None, "a", [1], [True],
    PathValue((1,), ()), PathValue((True,), ()), PathValue((1.0,), ()),
)  # fmt: skip
#: no two of these are ``==`` without being type-identical
PLAIN = (0, 1, 2, "a", "b", None, [1], ["a"])

VIEWS = (
    ("MATCH (n:N) RETURN n.v AS v, n.w AS w", None),
    ("MATCH (n:N) RETURN n.v AS v, count(*) AS c", None),
    # parallel P edges give distinct paths with equal vertex sequences
    ("MATCH t = (a:N)-[:P*]->(b:N) RETURN t, b.w AS w", None),
    ("MATCH (a:N)-[:E]->(b:N) WHERE a.v = $x RETURN a, b", {"x": 1}),
    ("MATCH (a:N)-[:E]->(b:N) WHERE a.v = $x RETURN a, b", {"x": True}),
)
PARTITION_READ = "MATCH (a:N)-[:E]->(b:N) WHERE a.v = $x RETURN DISTINCT b"
READS = (
    # exact root hits, the second alpha-renamed (variables and aliases)
    ("MATCH (n:N) RETURN n.v AS v, n.w AS w", None),
    ("MATCH (m:N) RETURN m.v AS x, m.w AS y", None),
    ("MATCH (n:N) RETURN n.v AS v, count(*) AS c", None),
    ("MATCH t = (a:N)-[:P*]->(b:N) RETURN t, b.w AS w", None),
    # ordered residuals over a root's listing: ties, DESC, SKIP
    ("MATCH (n:N) RETURN n.v AS v, count(*) AS c ORDER BY c DESC LIMIT 2", None),
    ("MATCH (n:N) RETURN n.v AS v, n.w AS w ORDER BY w, v DESC SKIP 1 LIMIT 3", None),
    ("MATCH (n:N) RETURN n.v AS v, n.w AS w SKIP 2", None),
    ("MATCH t = (a:N)-[:P*]->(b:N) RETURN t, b.w AS w ORDER BY w DESC LIMIT 2", None),
    # σ and σ/δ residuals over a root's listing
    ("MATCH (n:N) WITH n.v AS v, count(*) AS c WHERE c > 1 RETURN v, c", None),
    ("MATCH (n:N) WITH n.v AS v, n.w AS w WHERE w = 'a' RETURN DISTINCT v, w", None),
    # the parameterised views' own roots, each under its type-exact binding
    (VIEWS[3][0], {"x": 1}),
    (VIEWS[3][0], {"x": True}),
    # another projection over those views' σ, and a binding no view holds:
    # no root lists them, so they are recomputed
    (PARTITION_READ, {"x": 1}),
    (PARTITION_READ, {"x": True}),
    (PARTITION_READ, {"x": 1.0}),
)
MAX_VERTICES = 6
MAX_EDGES = 10


def typed(rows) -> list:
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


def assert_read(engine: QueryEngine, query: str, parameters, plain: bool) -> None:
    served = engine.evaluate(query, parameters)
    direct = engine.evaluate(query, parameters, use_views=False)
    assert served.columns == direct.columns
    assert served.ordered == direct.ordered
    if engine._incremental.pending_changes():
        assert typed(served.rows()) == typed(direct.rows())  # declined
        return
    reference = over_the_materialisation(engine, query, parameters)
    if reference is None:
        reference = direct
    assert typed(served.rows()) == typed(reference.rows()), query
    if plain:
        assert typed(served.rows()) == typed(direct.rows()), query
    elif not served.ordered:
        assert served.multiset() == direct.multiset(), query


def operations(values):
    return st.one_of(
        st.tuples(st.just("add"), values, values),
        st.tuples(st.just("set"), st.integers(0, 7), st.sampled_from("vw"), values),
        st.tuples(st.just("drop"), st.integers(0, 7)),
        st.tuples(
            st.just("edge"), st.integers(0, 7), st.integers(0, 7), st.sampled_from("EP")
        ),
        st.tuples(st.just("unedge"), st.integers(0, 15)),
        st.tuples(st.just("cycle"), st.integers(0, len(VIEWS) - 1)),
        st.just(("read",)),
    )


def programs(values):
    one = operations(values)
    step = st.one_of(
        one,
        st.tuples(st.just("tx"), st.lists(one, max_size=5), st.booleans()),
        st.tuples(st.just("batch"), st.lists(one, max_size=5)),
    )
    return st.tuples(
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

    def read(self) -> None:
        for query, parameters in READS:
            assert_read(self.engine, query, parameters, self.plain)

    def op(self, op) -> None:
        graph = self.graph
        vertices = sorted(graph.vertices())
        kind = op[0]
        if kind == "read":
            self.read()
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
        elif kind == "edge":
            source = vertices[op[1] % len(vertices)]
            target = vertices[op[2] % len(vertices)]
            if op[3] == "P":  # keep the P edges acyclic: trails stay few
                if source == target:
                    return
                source, target = min(source, target), max(source, target)
            if graph.edge_count < MAX_EDGES:
                graph.add_edge(source, target, op[3])
        elif kind == "unedge":
            edges = sorted(graph.edges())
            if edges:
                graph.remove_edge(edges[op[1] % len(edges)])

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
        steps, register_after = program
        pending = sorted(zip(register_after, range(len(VIEWS))))
        for index, step in enumerate(steps):
            while pending and pending[0][0] <= index:
                self.register(pending.pop(0)[1])
            self.step(step)
        for _, view in pending:
            self.register(view)
        self.read()


#: a ``True`` → ``1`` write under both partition views (both register
#: first): the row must leave the ``x = True`` view and enter the ``x = 1``
#: one, and a later write must find it there to retract
RETYPED = [("add", True, 1), ("set", 0, "v", 1), ("edge", 0, 0, "E")]


class TestServedReadsEqualTheReadsTheyReplace:
    @settings(max_examples=120, deadline=None)
    @given(batched=st.booleans(), program=programs(st.sampled_from(HOSTILE)))
    @example(batched=False, program=(RETYPED, [0] * len(VIEWS)))
    @example(batched=True, program=(RETYPED, [0] * len(VIEWS)))
    @example(
        batched=False, program=(RETYPED + [("set", 0, "v", NAN)], [0] * len(VIEWS))
    )
    def test_hostile_values(self, batched, program):
        Stream(batched, plain=False).run(program)

    @settings(max_examples=120, deadline=None)
    @given(batched=st.booleans(), program=programs(st.sampled_from(PLAIN)))
    def test_plain_values(self, batched, program):
        Stream(batched, plain=True).run(program)

    def test_every_listing_read_kind_is_served(self):
        rng = random.Random(5)
        stream = Stream(batched=False, plain=True)
        for index in range(len(VIEWS)):
            stream.register(index)
        for _ in range(MAX_VERTICES):
            stream.op(("add", rng.choice((0, 1, 2)), rng.choice("ab")))
        for a, b, kind in ((0, 1, "E"), (1, 2, "E"), (0, 1, "P"), (1, 2, "P")):
            stream.op(("edge", a, b, kind))
        stream.read()
        stats = stream.engine.answer_stats()
        assert stats.fallbacks == 3  # the three partition reads
        assert stats.exact == 6  # four plain roots, two parameterised ones
        assert stats.residual == len(READS) - 6 - 3


class TestListingAnswers:
    QUERY = VIEWS[0][0]

    def engine_with_rows(self, *values):
        graph = PropertyGraph()
        engine = QueryEngine(graph)
        for value in values:
            graph.add_vertex(labels=["N"], properties={"v": value, "w": "x"})
        return graph, engine

    def test_exact_hit_is_the_views_listing(self):
        graph, engine = self.engine_with_rows(3, 1, 2)
        view = engine.register(self.QUERY)
        table = engine.evaluate(self.QUERY)
        assert table.rows() == view.rows() == [(1, "x"), (2, "x"), (3, "x")]
        assert not table.ordered
        assert engine.answer_stats().exact == 1
        assert "served from the view's maintained listing" in engine.explain(
            self.QUERY
        )
        assert "maintained listing" not in engine.explain(READS[4][0])

    def test_mutating_returned_rows_leaves_the_listing_intact(self):
        graph, engine = self.engine_with_rows(3, 1, 2)
        view = engine.register(self.QUERY)
        for query in (self.QUERY, READS[6][0]):
            table = engine.evaluate(query)
            rows = table.rows()
            rows.clear()
            rows.append(("junk",))
            assert table.rows() and ("junk",) not in table.rows()
        assert view.rows() == [(1, "x"), (2, "x"), (3, "x")]
        assert engine.evaluate(self.QUERY).rows() == view.rows()

    def test_path_views_splice_parallel_edges_too(self):
        graph, engine = self.engine_with_rows(1, 2, 3, 4)
        query = VIEWS[2][0]
        view = engine.register(query)
        production = view.network.production
        a, b, c, d = sorted(graph.vertices())
        graph.add_edge(a, b, "P")
        graph.add_edge(b, c, "P")
        assert_read(engine, query, None, plain=True)
        assert (production.listing_splices, production.listing_rebuilds) == (0, 1)
        graph.add_edge(c, d, "P")  # new vertex sequences only: spliced
        assert_read(engine, query, None, plain=True)
        assert (production.listing_splices, production.listing_rebuilds) == (1, 1)
        # second paths a-b, a-b-c, a-b-c-d: their edges order them, spliced
        graph.add_edge(a, b, "P")
        assert_read(engine, query, None, plain=True)
        assert (production.listing_splices, production.listing_rebuilds) == (2, 1)
        assert len(view.rows()) == 9


class TestMatchMemo:
    QUERY = VIEWS[0][0]
    RESIDUAL = READS[8][0]

    def engine(self, **flags):
        graph = PropertyGraph()
        engine = QueryEngine(graph, **flags)
        for value in (1, 1, 2):
            graph.add_vertex(labels=["N"], properties={"v": value, "w": "x"})
        return graph, engine

    def test_a_memoised_miss_ends_at_the_next_register(self):
        graph, engine = self.engine()
        engine.register("MATCH (p:P) RETURN p")  # a live catalog, no cover
        for _ in range(2):
            assert_read(engine, self.QUERY, None, plain=True)
        stats = engine.answer_stats()
        assert (stats.fallbacks, stats.memo_hits) == (2, 1)
        engine.register(self.QUERY)
        assert_read(engine, self.QUERY, None, plain=True)
        assert stats.answered == 1 and stats.exact == 1

    def test_detach_never_leaves_a_stale_source(self):
        graph, engine = self.engine()
        views = [engine.register(VIEWS[0][0]), engine.register(VIEWS[1][0])]
        for query in (self.QUERY, self.RESIDUAL):
            engine.evaluate(query)
            engine.evaluate(query)  # memoised
        stats = engine.answer_stats()
        assert (stats.memo_hits, stats.answered) == (2, 4)

        def gone():
            raise AssertionError("read a detached view's production")

        for view in views:
            view.detach()
            view.network.production.sorted_rows = gone
            view.network.production.listing = gone
            view.network.production.multiset = gone
        for value in (2, 3):
            graph.add_vertex(labels=["N"], properties={"v": value, "w": "y"})
            for query in (self.QUERY, self.RESIDUAL):
                assert_read(engine, query, None, plain=True)
        assert stats.answered == 4

    def test_a_second_view_takes_over_first_in_first_out(self):
        graph, engine = self.engine()
        first = engine.register(self.QUERY)
        second = engine.register(self.QUERY)
        engine.evaluate(self.QUERY)
        engine.evaluate(self.QUERY)
        assert first.network.production.listing_rebuilds == 1
        assert second.network.production.listing_rebuilds == 0
        first.detach()
        graph.add_vertex(labels=["N"], properties={"v": 9, "w": "z"})
        assert_read(engine, self.QUERY, None, plain=True)
        assert second.network.production.listing_rows == 4
        assert engine.answer_stats().exact == 3

    def test_recreated_compiled_queries_never_see_a_stale_plan(self):
        graph, engine = self.engine()
        engine.register(VIEWS[0][0])
        engine.register(VIEWS[1][0])
        catalog = engine.catalog
        texts = [self.QUERY, VIEWS[1][0], READS[4][0], self.RESIDUAL]
        for index in range(60):
            compiled = compile_query(texts[index % len(texts)])
            served = catalog.try_answer(compiled)
            direct = Interpreter(graph).run(compiled.plan)
            assert served.columns == direct.columns
            assert typed(served.rows()) == typed(direct.rows())
            del compiled, served
        assert catalog.stats.memo_hits == 0  # a fresh object is a fresh key

    def test_bindings_are_keyed_type_exactly(self):
        graph, engine = self.engine()
        a, b, _ = sorted(graph.vertices())
        graph.add_edge(a, b, "E")
        graph.set_vertex_property(b, "v", True)
        graph.add_edge(b, a, "E")
        # a lone binding keeps its pushed-down plan; a second lifts the
        # shape: the x = 1 root serves from its listing either way
        engine.register(VIEWS[3][0], {"x": "lone"})
        engine.register(VIEWS[3][0], VIEWS[3][1])
        for _ in range(2):
            for x in (1, True, 1.0):
                assert_read(engine, VIEWS[3][0], {"x": x}, plain=True)
        stats = engine.answer_stats()
        assert stats.memo_hits == 3
        assert (stats.answered, stats.fallbacks) == (2, 4)
        assert "exact hit" in engine.explain(VIEWS[3][0], {"x": 1})
        assert "exact hit" not in engine.explain(VIEWS[3][0], {"x": True})

    def test_the_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(catalog_module, "MATCH_MEMO_LIMIT", 8)
        graph, engine = self.engine()
        engine.register(VIEWS[3][0], VIEWS[3][1])
        catalog = engine.catalog
        for x in range(40):
            engine.evaluate(PARTITION_READ, {"x": x})
            assert len(catalog._memo) <= 8
        assert catalog.stats.queries == 40

    def test_unkeyable_bindings_match_without_the_memo(self):
        graph, engine = self.engine()
        engine.register(self.QUERY)
        for _ in range(2):
            engine.evaluate(self.QUERY, {"unused": object()})
        stats = engine.answer_stats()
        assert stats.exact == 2 and stats.memo_hits == 0
