"""Transaction-batched delta propagation (rete/batch.py + engine.batch()).

The contract under test: a batch propagates *one net delta per input node*,
fires each view's ``on_change`` exactly once per batch (never for a batch
that nets to nothing), and always leaves views identical to full
recomputation — the IVM property, batched.
"""

from __future__ import annotations

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import TransactionError
from repro.rete.batch import BatchAccumulator
from repro.rete.nodes.input import EdgeInputNode
from repro.workloads import social

from ..conftest import PAPER_QUERY, assert_view_matches_oracle


def make_paper_graph():
    graph = PropertyGraph()
    post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    comment2 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    comment3 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(post, comment2, "REPLY")
    graph.add_edge(comment2, comment3, "REPLY")
    return graph, post, comment2, comment3


# ---------------------------------------------------------------------------
# net-zero batches
# ---------------------------------------------------------------------------


def test_insert_then_delete_same_edge_nets_to_zero():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)
    before = view.multiset()
    deltas = []
    view.on_change(deltas.append)

    with engine.batch():
        comment4 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        edge = graph.add_edge(comment3, comment4, "REPLY")
        graph.remove_edge(edge)
        graph.remove_vertex(comment4)

    assert deltas == []  # a cancelled batch must not fire callbacks
    assert view.multiset() == before
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_property_round_trip_nets_to_zero():
    graph, _, comment2, __ = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)
    deltas = []
    view.on_change(deltas.append)

    with engine.batch():
        graph.set_vertex_property(comment2, "lang", "de")
        graph.set_vertex_property(comment2, "lang", "fr")
        graph.set_vertex_property(comment2, "lang", "en")

    assert deltas == []
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_label_round_trip_nets_to_zero():
    graph, _, comment2, __ = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)
    deltas = []
    view.on_change(deltas.append)

    with engine.batch():
        graph.remove_label(comment2, "Comm")
        graph.add_label(comment2, "Comm")

    assert deltas == []
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_accumulator_cancels_ephemeral_entities():
    graph = PropertyGraph()
    accumulator = BatchAccumulator(graph)
    graph.subscribe(accumulator.record)
    vertex = graph.add_vertex(labels=["Post"])
    other = graph.add_vertex(labels=["Comm"])
    edge = graph.add_edge(vertex, other, "REPLY")
    graph.remove_edge(edge)
    graph.remove_vertex(vertex)
    batch = accumulator.consolidate()
    assert batch.raw_events == 5
    assert batch.edges == {}  # edge add/remove cancelled
    # only the surviving vertex remains, as a net addition under its label
    assert batch.net_records == 1
    assert batch.vertices == {None: ([other], []), "Comm": ([other], [])}
    assert batch.label_flips == batch.key_changes == {}
    assert batch.vertex_before == batch.edge_before == {}


def test_changed_entity_whose_rows_are_equal_emits_nothing():
    """An endpoint sweep retracts and asserts only rows that moved."""
    graph = PropertyGraph()
    a = graph.add_vertex(labels=["Person"], properties={"name": "a"})
    b = graph.add_vertex(labels=["Person"], properties={"name": "b"})
    graph.add_edge(a, b, "KNOWS")
    engine = QueryEngine(graph)
    query = "MATCH (x)-[:KNOWS]->(y:Person) RETURN x, y, y.name"
    view = engine.register(query)
    (edges,) = [n for n in view.network.nodes() if isinstance(n, EdgeInputNode)]
    emitted = edges.emitted_rows
    with engine.batch():
        graph.set_vertex_property(a, "name", "z")  # a's name is no column
    assert edges.emitted_rows == emitted
    with engine.batch():
        graph.set_vertex_property(b, "name", "z")  # b's is: -old, +new
    assert edges.emitted_rows == emitted + 2
    assert_view_matches_oracle(engine, view, query)


# ---------------------------------------------------------------------------
# once-per-batch callbacks
# ---------------------------------------------------------------------------


def test_on_change_fires_exactly_once_per_batch():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)
    deltas = []
    view.on_change(deltas.append)

    with engine.batch():
        for _ in range(5):
            comment = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
            graph.add_edge(comment3, comment, "REPLY")
            comment3 = comment

    assert len(deltas) == 1
    assert len(deltas[0]) == 5  # the net output delta, all five new threads
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_nested_batches_flush_once_at_outermost_exit():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)
    deltas = []
    view.on_change(deltas.append)

    with engine.batch():
        comment4 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        with engine.batch():
            graph.add_edge(comment3, comment4, "REPLY")
        assert deltas == []  # inner exit must not flush

    assert len(deltas) == 1
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_batch_flushes_on_exception():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)

    with pytest.raises(RuntimeError):
        with engine.batch():
            comment4 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
            graph.add_edge(comment3, comment4, "REPLY")
            raise RuntimeError("boom")

    # the mutations happened (no transaction here), so the view caught up
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_unbalanced_end_batch_rejected():
    engine = QueryEngine(PropertyGraph())
    with pytest.raises(TransactionError):
        engine._incremental._end_batch()


# ---------------------------------------------------------------------------
# batched == per-event == oracle
# ---------------------------------------------------------------------------


def test_batched_equals_per_event_on_churn_stream():
    net = social.generate_social(persons=6, posts_per_person=1, comments_per_post=3)
    graph = net.graph
    batched = QueryEngine(graph)
    per_event = QueryEngine(graph)

    queries = [PAPER_QUERY, social.QUERIES["popular_posts"]]
    batched_views = [batched.register(q) for q in queries]
    per_event_views = [per_event.register(q) for q in queries]

    stream = social.update_stream(net, operations=60, seed=11)
    done = False
    while not done:
        with batched.batch():  # batches of 8 operations
            for _ in range(8):
                if next(stream, None) is None:
                    done = True
                    break
        for query, bview, eview in zip(queries, batched_views, per_event_views):
            assert bview.multiset() == eview.multiset()
            assert_view_matches_oracle(batched, bview, query)


def test_endpoint_label_and_property_changes_in_batch():
    graph = PropertyGraph()
    engine = QueryEngine(graph)
    post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    comm = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(post, comm, "REPLY")
    query = (
        "MATCH (p:Post)-[:REPLY]->(c:Comm) "
        "RETURN p.lang AS plang, c.lang AS clang"
    )
    view = engine.register(query)
    assert view.rows() == [("en", "en")]

    with engine.batch():
        graph.set_vertex_property(comm, "lang", "de")   # pushed-down column
        graph.remove_label(post, "Post")                # breaks the constraint
    assert view.rows() == []
    assert_view_matches_oracle(engine, view, query)

    with engine.batch():
        graph.add_label(post, "Post")                   # restores membership
        graph.set_vertex_property(post, "lang", "de")
    assert view.rows() == [("de", "de")]
    assert_view_matches_oracle(engine, view, query)


def test_vertex_removed_with_incident_edges_in_batch():
    graph, post, comment2, comment3 = make_paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(PAPER_QUERY)

    with engine.batch():
        graph.set_vertex_property(comment2, "lang", "de")
        graph.remove_vertex(comment3, detach=True)

    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_register_mid_batch_stays_consistent():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph)
    early = engine.register(PAPER_QUERY)

    with engine.batch():
        comment4 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(comment3, comment4, "REPLY")
        late = engine.register(PAPER_QUERY)  # flushes the pending window
        comment5 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(comment4, comment5, "REPLY")

    assert early.multiset() == late.multiset()
    assert_view_matches_oracle(engine, early, PAPER_QUERY)


# ---------------------------------------------------------------------------
# transaction integration
# ---------------------------------------------------------------------------


def test_transaction_commit_propagates_once():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph, batch_transactions=True)
    view = engine.register(PAPER_QUERY)
    deltas = []
    view.on_change(deltas.append)

    with graph.transaction():
        comment4 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(comment3, comment4, "REPLY")
        comment5 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
        graph.add_edge(comment4, comment5, "REPLY")

    assert len(deltas) == 1
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_transaction_rollback_leaves_views_untouched():
    graph, _, __, comment3 = make_paper_graph()
    engine = QueryEngine(graph, batch_transactions=True)
    view = engine.register(PAPER_QUERY)
    before = view.multiset()
    deltas = []
    view.on_change(deltas.append)

    with pytest.raises(RuntimeError):
        with graph.transaction():
            comment4 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
            graph.add_edge(comment3, comment4, "REPLY")
            graph.set_vertex_property(comment3, "lang", "de")
            raise RuntimeError("doomed")

    assert deltas == []  # compensation nets the window to zero
    assert view.multiset() == before
    assert_view_matches_oracle(engine, view, PAPER_QUERY)


def test_write_queries_batched_under_batch_transactions():
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=True)
    view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
    deltas = []
    view.on_change(deltas.append)

    engine.execute("CREATE (:Post {lang:'en'}), (:Post {lang:'de'})")
    assert len(deltas) == 1
    assert sorted(view.rows()) == [("de",), ("en",)]

    engine.execute("MATCH (p:Post) DELETE p")
    assert len(deltas) == 2
    assert view.rows() == []


def test_engine_created_mid_transaction_survives_commit():
    """A transaction opened before the engine existed has no batch to close."""
    graph = PropertyGraph()
    with graph.transaction():
        engine = QueryEngine(graph, batch_transactions=True)
        view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    # commit must not raise, and the per-event path kept the view fresh
    assert view.rows() == [("en",)]

    with graph.transaction():  # subsequent transactions batch normally
        graph.add_vertex(labels=["Post"], properties={"lang": "de"})
    assert sorted(view.rows()) == [("de",), ("en",)]


def test_raising_callback_does_not_strand_other_views():
    graph = PropertyGraph()
    engine = QueryEngine(graph)
    angry = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
    calm = engine.register("MATCH (p:Post) RETURN p.lang AS lang")

    exploded = []

    def explode(delta):
        if not exploded:
            exploded.append(delta)
            raise RuntimeError("bad subscriber")

    angry.on_change(explode)
    deltas = []
    calm.on_change(deltas.append)

    with pytest.raises(RuntimeError):
        with engine.batch():
            graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    assert len(deltas) == 1  # the calm view still got its batch callback

    # and it is fully out of batch mode: per-event callbacks keep firing
    graph.add_vertex(labels=["Post"], properties={"lang": "de"})
    assert len(deltas) == 2
    assert_view_matches_oracle(engine, calm, "MATCH (p:Post) RETURN p.lang AS lang")


@pytest.mark.parametrize("batch_transactions", [False, True], ids=["per-event", "batched"])
def test_a_raising_callback_strands_no_view_on_autocommitted_writes(batch_transactions):
    """A callback that raises once: the error reaches the writer, and still
    every view, the raiser's other callback and served reads see both
    autocommitted writes."""
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=batch_transactions)
    rows, values = "MATCH (a:A) RETURN a", "MATCH (a:A) RETURN a.v AS v"
    first, second = engine.register(rows), engine.register(values)
    raised = []

    def explode(delta):
        if not raised:
            raised.append(delta)
            raise RuntimeError("bad subscriber")

    seen = []
    first.on_change(explode)
    first.on_change(seen.append)
    with pytest.raises(RuntimeError, match="bad subscriber"):
        graph.add_vertex(labels=["A"], properties={"v": 1})
    graph.add_vertex(labels=["A"], properties={"v": 2})
    assert len(raised) == 1 and len(seen) == 2
    expected = [(1,), (2,)]
    assert engine.evaluate(values, use_views=False).rows() == expected
    assert second.rows() == expected
    assert engine.evaluate(values).rows() == expected
    assert engine.answer_stats().answered == 1
    assert_view_matches_oracle(engine, first, rows)


@pytest.mark.parametrize("batch_transactions", [False, True], ids=["per-event", "batched"])
def test_a_raising_callback_and_a_write_statement(batch_transactions):
    """Per event the error fails the statement mid-way, which rolls back;
    batched it surfaces after the commit.  Either way every view, and the
    raiser's other callback, agree with the graph."""
    graph = PropertyGraph()
    engine = QueryEngine(graph, batch_transactions=batch_transactions)
    rows, values = "MATCH (a:A) RETURN a", "MATCH (a:A) RETURN a.v AS v"
    first, second = engine.register(rows), engine.register(values)

    def explode(delta):
        raise RuntimeError("bad subscriber")

    seen = []
    first.on_change(explode)
    first.on_change(seen.append)
    with pytest.raises(RuntimeError, match="bad subscriber"):
        engine.execute("CREATE (:A {v: 1}) CREATE (:A {v: 2})")
    expected = [(1,), (2,)] if batch_transactions else []
    assert engine.evaluate(values, use_views=False).rows() == expected
    assert second.rows() == engine.evaluate(values).rows() == expected
    assert_view_matches_oracle(engine, first, rows)
    replayed: dict = {}
    for delta in seen:
        for row, count in delta.items():
            replayed[row] = replayed.get(row, 0) + count
    assert {row: n for row, n in replayed.items() if n} == first.multiset()


def test_per_event_path_unchanged_without_opt_in():
    """batch_size=1 baseline: no batching, one callback per elementary change."""
    graph = PropertyGraph()
    engine = QueryEngine(graph)
    view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
    deltas = []
    view.on_change(deltas.append)
    graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    graph.add_vertex(labels=["Post"], properties={"lang": "de"})
    assert len(deltas) == 2
