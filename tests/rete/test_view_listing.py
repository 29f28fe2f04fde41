"""The canonical listing behind ``View.rows()``: a spliced read ≡ a full sort.

A view's production node keeps its bag expanded in canonical order and, on
each read, splices in only the rows whose count changed since the previous
read.  The contract is that this is unobservable: after any stream of
writes, transactions, rollbacks and batch windows, ``rows()`` must list
exactly ``canonical_order`` of the *stored* bag expanded — the same row
objects, in the same order — including for values the splice must refuse
(``1``/``True``/``1.0``, ``0``/``False``/``0.0``/``-0.0``, NaN, lists, and
paths whose vertex sequences are equal).

CI runs this module under two ``PYTHONHASHSEED`` values: the listing's
order must not depend on string hashing.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine
from repro.eval.results import ResultTable, canonical_order

NAN = float("nan")
OTHER_NAN = float("nan")
#: values Python equality conflates, NaNs, and lists that compare alike
HOSTILE = (
    1, True, 1.0, 0, False, 0.0, -0.0, NAN, OTHER_NAN, None, "a", [1], [1.0], [True]
)  # fmt: skip
#: the domain in which every read may splice
PLAIN = (0, 1, 2, "a", "b", None)

QUERIES = (
    "MATCH (n:N) RETURN n.v AS v",
    "MATCH (n:N) RETURN n.v AS v, n.w AS w",
    "MATCH (a:N)-[:E]->(b:N) RETURN a.v AS x, b.w AS y",
    # parallel P edges give distinct paths with equal vertex sequences
    "MATCH t = (a:N)-[:P*]->(b:N) RETURN t, b.w AS w",
)
MAX_VERTICES = 6
MAX_EDGES = 10


def typed(row: tuple) -> tuple:
    return tuple((type(value).__name__, repr(value)) for value in row)


def assert_listing(view) -> None:
    """``rows()`` is ``canonical_order`` of the stored bag, object for object."""
    stored = [
        row
        for row, multiplicity in view.network.production.results.items()
        for _ in range(multiplicity)
    ]
    expected = canonical_order(stored)
    listed = view.rows()
    assert list(map(typed, listed)) == list(map(typed, expected))
    assert all(got is want for got, want in zip(listed, expected))
    # the caller owns the returned list: scribbling on it changes nothing
    listed.reverse()
    listed.append(("scribbled",))


def operations(values):
    return st.one_of(
        st.tuples(st.just("add"), values, values),
        st.tuples(st.just("set"), st.integers(0, 7), st.sampled_from("vw"), values),
        st.tuples(st.just("drop"), st.integers(0, 7)),
        st.tuples(
            st.just("edge"), st.integers(0, 7), st.integers(0, 7), st.sampled_from("EP")
        ),
        st.tuples(st.just("unedge"), st.integers(0, 15)),
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
        st.lists(step, max_size=16),
        # after which step each query registers (past the end: at the end)
        st.lists(st.integers(0, 16), min_size=len(QUERIES), max_size=len(QUERIES)),
    )


class _Rollback(Exception):
    pass


class Stream:
    """Drives one engine through a drawn program, checking every read."""

    def __init__(self, batched: bool):
        self.graph = PropertyGraph()
        self.engine = QueryEngine(self.graph, batch_transactions=batched)
        self.views = []

    def register(self, query: str) -> None:
        view = self.engine.register(query)
        self.views.append(view)
        assert_listing(view)

    def read(self) -> None:
        for view in self.views:
            assert_listing(view)

    def op(self, op) -> None:
        graph = self.graph
        vertices = sorted(graph.vertices())
        kind = op[0]
        if kind == "read":
            self.read()
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
            _, ops, rollback = step
            try:
                with self.graph.transaction():
                    for op in ops:
                        self.op(op)
                    if rollback:
                        raise _Rollback
            except _Rollback:
                pass
        elif step[0] == "batch":
            before = [view.rows() for view in self.views]
            with self.engine.batch():
                for op in step[1]:
                    self.op(op)
                    if op[0] == "read":  # an open batch reads stale
                        assert [view.rows() for view in self.views] == before
        else:
            self.op(step)

    def run(self, program) -> None:
        steps, register_after = program
        pending = sorted(zip(register_after, QUERIES))
        for index, step in enumerate(steps):
            while pending and pending[0][0] <= index:
                self.register(pending.pop(0)[1])
            self.step(step)
        for _, query in pending:
            self.register(query)
        self.read()


def productions(stream: Stream):
    return [view.network.production for view in stream.views]


class TestSplicedReadsEqualTheFullSort:
    @settings(max_examples=300, deadline=None)
    @given(batched=st.booleans(), program=programs(st.sampled_from(HOSTILE)))
    def test_hostile_values(self, batched, program):
        Stream(batched).run(program)

    @settings(max_examples=150, deadline=None)
    @given(batched=st.booleans(), program=programs(st.sampled_from(PLAIN)))
    def test_plain_values(self, batched, program):
        Stream(batched).run(program)

    def test_plain_stream_splices(self):
        rng = random.Random(7)
        stream = Stream(batched=False)
        for query in QUERIES[:3]:
            stream.register(query)
        for _ in range(60):
            stream.op(("add", rng.choice(PLAIN), rng.choice(PLAIN)))
            stream.op(("set", rng.randrange(8), "v", rng.choice(PLAIN)))
            stream.op(("edge", rng.randrange(8), rng.randrange(8), "E"))
            stream.op(("unedge", rng.randrange(16)))
            stream.read()
        splices = sum(p.listing_splices for p in productions(stream))
        rebuilds = sum(p.listing_rebuilds for p in productions(stream))
        assert splices > 0
        assert rebuilds < splices

    def test_nan_forces_a_rebuild(self):
        stream = Stream(batched=False)
        for value in (1, 2, "a"):
            stream.op(("add", value, None))
        stream.register(QUERIES[0])
        (production,) = productions(stream)
        stream.op(("set", 0, "v", 3))
        stream.read()
        assert (production.listing_splices, production.listing_rebuilds) == (1, 1)
        stream.op(("set", 1, "v", NAN))
        stream.read()
        assert (production.listing_splices, production.listing_rebuilds) == (1, 2)
        stream.op(("set", 2, "v", 4))  # the listing holds a NaN now
        stream.read()
        assert (production.listing_splices, production.listing_rebuilds) == (1, 3)

    def test_a_nan_in_the_listing_blocks_splicing(self):
        # the full sort leaves 16 behind the NaN; bisect would put 25 at
        # the front, with both neighbours in order
        stream = Stream(batched=False)
        stream.register(QUERIES[0])
        for value in (26, 42, 74, NAN, 16):
            stream.op(("add", value, None))
        stream.read()
        stream.op(("add", 25, None))
        stream.read()
        (production,) = productions(stream)
        assert production.listing_splices == 0

    def test_a_row_back_under_another_type_replaces_the_old_copies(self):
        stream = Stream(batched=False)
        stream.op(("add", 1, None))
        stream.register(QUERIES[0])
        stream.op(("drop", 0))
        stream.op(("add", True, None))  # == the dropped row, another sort key
        stream.read()
        (view,) = stream.views
        assert list(map(typed, view.rows())) == [(("bool", "True"),)]

    def test_paths_with_equal_vertex_sequences(self):
        stream = Stream(batched=False)
        stream.op(("add", 1, "a"))
        stream.op(("add", 1, "b"))
        stream.register(QUERIES[3])
        for _ in range(3):
            stream.op(("edge", 0, 1, "P"))
            stream.read()
        (view,) = stream.views
        assert len(view.rows()) == 3
        assert len({typed(row) for row in view.rows()}) == 1  # equal sort keys

    def test_many_changes_drop_the_listing(self):
        stream = Stream(batched=False)
        stream.op(("add", 1, None))
        stream.register(QUERIES[0])
        (production,) = productions(stream)
        assert production.listing_rows == 1
        stream.op(("add", 2, None))
        assert production.listing_rows == 1  # one pending change, kept
        stream.op(("add", 3, None))
        assert production.listing_rows == 0  # two pending > one listed
        stream.read()
        assert production.listing_rows == 3
        assert production.listing_rebuilds == 2

    def test_an_unread_view_keeps_no_listing(self):
        stream = Stream(batched=False)
        view = stream.engine.register(QUERIES[0])
        stream.op(("add", 1, None))
        production = view.network.production
        assert production.listing_rows == 0
        assert production.listing_rebuilds == production.listing_splices == 0


class TestListingLifecycle:
    def test_detach_releases_the_listing(self):
        stream = Stream(batched=False)
        stream.op(("add", 1, None))
        stream.register(QUERIES[0])
        (view,) = stream.views
        production = view.network.production
        assert production.listing_rows == 1
        view.detach()
        assert production.listing_rows == 0
        stream.op(("add", 2, None))  # no longer noted anywhere

    def test_per_event_and_batched_engines_list_alike(self):
        """Two engines over one graph, one per event and one per
        transaction: their listings agree row for row, the listing gauge
        counts every listed row, and detaching releases the listing."""
        graph = PropertyGraph()
        per_event = QueryEngine(graph)
        batched = QueryEngine(graph, batch_transactions=True, collect_metrics=True)
        pairs = [
            (per_event.register(q), batched.register(q)) for q in QUERIES[:3]
        ]
        rng = random.Random(3)
        for _ in range(12):
            with graph.transaction():
                graph.add_vertex(
                    labels=["N"],
                    properties={"v": rng.choice(PLAIN), "w": rng.choice(HOSTILE)},
                )
                vertices = sorted(graph.vertices())
                graph.add_edge(rng.choice(vertices), rng.choice(vertices), "E")
                graph.set_vertex_property(rng.choice(vertices), "v", rng.choice(PLAIN))
            for mine, theirs in pairs:
                assert list(map(typed, theirs.rows())) == list(map(typed, mine.rows()))
                assert theirs.result_table().rows() == theirs.rows()
                count = f"rows={len(mine.rows())})"
                assert count in repr(mine) and count in repr(theirs)
        productions = [theirs.network.production for _, theirs in pairs]
        assert sum(p.listing_splices for p in productions) > 0
        snapshot = batched.metrics_snapshot()
        assert snapshot["repro_view_listing_rows"]["value"] == sum(
            len(theirs.rows()) for _, theirs in pairs
        )
        pairs[0][1].detach()
        assert productions[0].listing_rows == 0

    def test_mutating_a_returned_list_leaves_the_listing_intact(self):
        stream = Stream(batched=False)
        for value in (3, 1, 2):
            stream.op(("add", value, None))
        stream.register(QUERIES[0])
        (view,) = stream.views
        rows = view.rows()
        rows.clear()
        rows.append(("junk",))
        assert view.rows() == [(1,), (2,), (3,)]
        table = view.result_table()
        table.rows().clear()
        assert table.rows() == [(1,), (2,), (3,)]
        assert list(table) == view.rows()


class TestResultTableSortsOnce:
    def test_returned_lists_are_copies(self):
        graph = PropertyGraph()
        for value in (2, 1, 3):
            graph.add_vertex(labels=["N"], properties={"v": value})
        table = QueryEngine(graph).evaluate("MATCH (n:N) RETURN n.v AS v")
        rows = table.rows()
        rows.reverse()
        rows.append((0,))
        assert table.rows() == [(1,), (2,), (3,)]
        assert [record["v"] for record in table.records()] == [1, 2, 3]
        assert list(table) == [(1,), (2,), (3,)]

    def test_the_canonical_sort_runs_once(self, monkeypatch):
        from repro.eval import results

        calls = []
        sort = results.canonical_order
        monkeypatch.setattr(
            results, "canonical_order", lambda rows: calls.append(1) or sort(rows)
        )
        table = ResultTable(
            QueryEngine(PropertyGraph()).compile("MATCH (n) RETURN n.v AS v").plan.schema,
            [(2,), (1,)],
        )
        assert table.rows() == list(table) == [(1,), (2,)]
        table.records()
        table.to_text()
        assert len(calls) == 1
