"""Propagate, then notify: what an ``on_change`` callback sees and causes.

Every commit — one per-event mutation, or one batch — first reaches every
view, and only then delivers one net delta to each view it changed, in
view-registration order.  So inside any callback every live view equals
its query re-evaluated, a write a callback makes is the *next* commit
(delivered by the next round of the one delivery loop, never from inside
the callback), and a raising callback stops no other delivery: the first
error re-raises once, from the outermost call, after the last delivery.

Each case runs per event and under ``batch_transactions``, with metrics
and tracing on and off (:data:`~.oracle.ENGINE_OPTIONS`).
"""

import random
from contextlib import nullcontext

import pytest

from repro import PropertyGraph, QueryEngine

from .oracle import ENGINE_OPTION_IDS, ENGINE_OPTIONS, OracleMirror

OPTIONS = pytest.mark.parametrize("options", ENGINE_OPTIONS, ids=ENGINE_OPTION_IDS)

SELF_JOIN = "MATCH (x:P)-[:K]->(y:P), (y)-[:K]->(x) RETURN x, y"
PATH = "MATCH (a:P)-[:K]->(b:P)-[:K]->(c:P) RETURN a, c"


def recomputed(engine: QueryEngine, view) -> list[tuple]:
    return engine.evaluate(view.compiled.text, use_views=False).rows()


@OPTIONS
def test_a_self_join_hears_its_event_once_and_complete(options):
    """Both sides of the ⋈ read one input: the edge's two rows arrive in
    one callback, and the view read inside it equals recomputation."""
    graph = PropertyGraph()
    one, two = graph.add_vertex(["P"]), graph.add_vertex(["P"])
    graph.add_edge(one, two, "K")
    engine = QueryEngine(graph, **options)
    view = engine.register(SELF_JOIN)
    heard = []
    view.on_change(
        lambda delta: heard.append(
            (sorted(delta.items()), view.rows(), recomputed(engine, view))
        )
    )
    graph.add_edge(two, one, "K")
    expected = sorted([(one, two), (two, one)])
    assert heard == [([((one, two), 1), ((two, one), 1)], expected, expected)]


@OPTIONS
def test_a_transaction_written_from_a_callback_arrives_whole(options):
    """The callback of ``v1 -K-> v2`` writes ``v3 -K-> v4`` and ``v4 -K->
    v5`` in one transaction: the view's next callback carries both of the
    rows that transaction made."""
    graph = PropertyGraph()
    v = [graph.add_vertex(["P"]) for _ in range(5)]
    graph.add_edge(v[1], v[2], "K")
    engine = QueryEngine(graph, **options)
    view = engine.register(PATH)
    heard = []

    def write_on_first(delta):
        heard.append(sorted(delta.items()))
        if len(heard) == 1:
            with graph.transaction():
                graph.add_edge(v[2], v[3], "K")
                graph.add_edge(v[3], v[4], "K")

    view.on_change(write_on_first)
    graph.add_edge(v[0], v[1], "K")
    assert heard == [
        [((v[0], v[2]), 1)],
        [((v[1], v[3]), 1), ((v[2], v[4]), 1)],
    ]
    assert sorted(view.rows()) == recomputed(engine, view)


@OPTIONS
def test_views_hear_a_commit_in_registration_order(options):
    """The path view is registered first, but its row comes out of the
    drain of a probe join's waiting delta, after the edge view's row."""
    graph = PropertyGraph()
    v = [graph.add_vertex(["P"]) for _ in range(3)]
    graph.add_edge(v[1], v[2], "K")
    engine = QueryEngine(graph, **options)
    order = []
    queries = (PATH, "MATCH (a)-[k:K]->(b) RETURN k", "MATCH (a:P)-[:K]->(b) RETURN a")
    for name, query in zip("abc", queries):
        engine.register(query).on_change(lambda delta, name=name: order.append(name))
    graph.add_edge(v[0], v[1], "K")
    assert order == ["a", "b", "c"]


def commit(graph: PropertyGraph, options: dict):
    """One transaction on a batched engine (a batch), else no scope."""
    return graph.transaction() if options["batch_transactions"] else nullcontext()


@OPTIONS
def test_a_view_detached_earlier_in_the_round_hears_nothing(options):
    graph = PropertyGraph()
    engine = QueryEngine(graph, **options)
    first = engine.register("MATCH (p:P) RETURN p")
    second = engine.register("MATCH (p:P) RETURN count(*) AS n")
    heard = []
    first.on_change(lambda delta: second.detach())
    second.on_change(heard.append)
    with commit(graph, options):
        graph.add_vertex(["P"])
        graph.add_vertex(["P"])
    assert heard == []
    assert engine.views == (first,)


class _Raised(Exception):
    pass


@OPTIONS
def test_raising_callbacks_across_a_nested_commit(options):
    """The first view's callback writes (a commit of its own) and raises;
    so does the second view's, in both rounds.  The write returns without
    raising, both rounds reach both views in registration order, and only
    the first error re-raises, once, from the outermost write."""
    graph = PropertyGraph()
    engine = QueryEngine(graph, **options)
    first = engine.register("MATCH (p:P) RETURN p")
    second = engine.register("MATCH (p:P) RETURN p.n AS n")
    heard, wrote = [], []

    def write_then_raise(delta):
        heard.append(("first", sorted(delta.items())))
        if not wrote:
            wrote.append(graph.add_vertex(["P"], {"n": 2}))
        raise _Raised(f"first {len(heard)}")

    def raise_always(delta):
        heard.append(("second", sorted(delta.items())))
        raise _Raised(f"second {len(heard)}")

    first.on_change(write_then_raise)
    second.on_change(raise_always)
    with pytest.raises(_Raised) as raised:
        graph.add_vertex(["P"], {"n": 1})
    assert str(raised.value) == "first 1"
    (two,) = wrote
    (((one,), _),) = heard[0][1]
    assert heard == [
        ("first", [((one,), 1)]),
        ("second", [((1,), 1)]),
        ("first", [((two,), 1)]),
        ("second", [((2,), 1)]),
    ]
    for view in (first, second):
        assert sorted(view.rows()) == recomputed(engine, view)
    # nothing was left over: the next commit delivers its own change only
    with pytest.raises(_Raised, match="first 5"):
        graph.remove_vertex(two)
    assert heard[4:] == [("first", [((two,), -1)]), ("second", [((2,), -1)])]


STREAM_VIEWS = (
    SELF_JOIN,
    PATH,
    "MATCH (a:P)-[:K]->(b) RETURN a, count(*) AS n",
    "MATCH (q:Q) RETURN q",
    "MATCH (a:P)-[:K]->(b:Q) RETURN a, b",
    # the trigger's view: last
    "MATCH (a:P)-[:K]->(b:P) RETURN a, b",
)


@pytest.mark.parametrize("seed", [1, 2])
@OPTIONS
def test_a_writing_trigger_in_a_random_stream(options, seed):
    """A trigger view writes back reverse edges, some in a transaction
    with a label flip, while a seeded stream adds and removes edges and
    labels.  Inside every callback every live view equals recomputation;
    after each step each ``on_change`` log replays to its view."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    vertices = [graph.add_vertex(["P"]) for _ in range(7)]
    for _ in range(6):
        graph.add_edge(rng.choice(vertices), rng.choice(vertices), "K")
    mirror = OracleMirror(graph, **options)
    engine = mirror.engine
    views = [mirror.register(query) for query in STREAM_VIEWS]
    budget = [0]
    checked = [0]

    def every_view_is_current(delta):
        for (query, parameters), view in zip(mirror.registered, mirror.views):
            held = view.multiset()
            assert mirror.same(
                held, engine.evaluate(query, parameters, use_views=False).multiset()
            ), query
        checked[0] += 1

    def trigger(delta):
        for (a, b), multiplicity in sorted(delta.items()):
            if multiplicity <= 0 or budget[0] <= 0 or (a + b) % 3:
                continue
            budget[0] -= 1
            if any(graph.target_of(e) == a for e in graph.out_edges(b, "K")):
                continue
            if (a * b) % 2:
                graph.add_edge(b, a, "K")
            else:
                with graph.transaction():
                    graph.add_edge(b, a, "K")
                    if graph.has_label(a, "Q"):
                        graph.remove_label(a, "Q")
                    else:
                        graph.add_label(a, "Q")

    for view in views:
        view.on_change(every_view_is_current)
    views[-1].on_change(trigger)

    def step():
        kind = rng.random()
        if kind < 0.45:
            graph.add_edge(rng.choice(vertices), rng.choice(vertices), "K")
        elif kind < 0.7:
            edges = sorted(graph.edges("K"))
            if edges:
                graph.remove_edge(rng.choice(edges))
        else:
            vertex, label = rng.choice(vertices), rng.choice(("P", "Q"))
            if graph.has_label(vertex, label):
                graph.remove_label(vertex, label)
            else:
                graph.add_label(vertex, label)

    for round_ in range(30):
        budget[0] = 2
        if options["batch_transactions"] and round_ % 3 == 0:
            with graph.transaction():
                for _ in range(3):
                    step()
        else:
            step()
        mirror.assert_consistent()
    assert checked[0] > 30
