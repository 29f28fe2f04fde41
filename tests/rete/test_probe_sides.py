"""Joins with a probe side: one side of a ⋈ read from the graph, not stored.

The network builder gives a ⋈ a *probe side* when that side is a ⇑ or ©
input under σ and bare-column π only and its join key holds one of the
input's id columns.  That side keeps no memory: the other side's deltas
pair with its rows read by key from the graph's adjacency or vertex
table, and its own deltas pair with the stored side.  Because the graph
is already in its new state when a change propagates, a stored-side
delta waits until the change's probe-side deltas have paired (the
engine's :class:`~repro.rete.nodes.base.Propagation`).

Every view here is held to recomputation (and to its own ``on_change``
log) per event and in transaction batches: the SNB and Train Benchmark
views under their write streams with rollbacks and a registration inside
an open batch, a trigger writing to a probe side's relation from inside
``on_change``, self-joins over one input, undirected and self-loop
edges, label flips on the key endpoint, and new bindings replayed from a
probe join by restricted ``state_delta``.  The deferred queue is empty
after every commit, and detaching every view drains every memory.  The
queue merges the deltas waiting for one ``(join, side)`` unconsolidated,
so each probe join reads the graph once per commit, and a callback's
write that reaches a drained join queues it again.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.algebra import ops
from repro.compiler.optimizer import built_plan
from repro.compiler.pipeline import compile_query
from repro.errors import CypherSemanticError
from repro.rete.deltas import ColumnDelta
from repro.rete.nodes.base import LEFT, RIGHT, Propagation
from repro.rete.nodes.join import JoinNode
from repro.workloads import trainbenchmark as tb
from repro.workloads.snb import SNB_QUERIES, generate_snb, update_stream

from .oracle import OracleMirror
from .test_populate import BINDING_TEMPLATES

BATCHED = pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])


def probe_joins(engine: QueryEngine) -> list[JoinNode]:
    return [
        node
        for node in engine._incremental._live_nodes()
        if isinstance(node, JoinNode) and node.probe is not None
    ]


def assert_settled(engine: QueryEngine) -> None:
    """No propagation in flight and nothing waiting for one."""
    propagation = engine._incremental.input_layer.propagation
    assert not propagation.active
    assert not propagation.deferred


class _Abort(Exception):
    pass


# -- the workloads' views ------------------------------------------------------


@BATCHED
def test_snb_views_equal_recomputation(batched):
    net = generate_snb(persons=12, forums=2, posts_per_forum=4, comments_per_post=2, seed=5)
    graph = net.graph
    mirror = OracleMirror(graph, batch_transactions=batched)
    name = graph.vertex_property(net.persons[3], "name")
    queries = list(SNB_QUERIES.values())
    for query in queries[: len(queries) // 2]:
        mirror.register(query, {"name": name})
    mirror.assert_consistent()
    assert probe_joins(mirror.engine)
    for round_ in range(6):
        updates = update_stream(net, 12, seed=round_)
        if round_ == 2:
            # a registration inside an open batch flushes the window first
            with mirror.engine.batch():
                for count, (_, apply) in enumerate(updates):
                    apply()
                    if count == 5:
                        for query in queries[len(queries) // 2 :]:
                            mirror.register(query, {"name": name})
        elif round_ % 2:
            # the workload's own lists of entities roll back with the graph
            held = {k: list(v) for k, v in vars(net).items() if isinstance(v, list)}
            try:
                with graph.transaction():
                    for _, apply in updates:
                        apply()
                    if round_ == 3:
                        raise _Abort
            except _Abort:
                for k, v in held.items():
                    setattr(net, k, v)
        else:
            for _, apply in updates:
                apply()
        assert_settled(mirror.engine)
        mirror.assert_consistent()


@BATCHED
def test_train_benchmark_views_equal_recomputation(batched):
    model = tb.generate_railway(routes=5, seed=4)
    graph = model.graph
    mirror = OracleMirror(graph, batch_transactions=batched)
    for query in tb.QUERIES.values():
        mirror.register(query)
    mirror.assert_consistent()
    assert len(probe_joins(mirror.engine)) >= 10
    rng = random.Random(8)
    names = list(tb.QUERIES)
    for round_ in range(8):
        name = names[round_ % len(names)]
        view = mirror.views[names.index(name)]
        try:
            with graph.transaction():
                tb.inject(model, name, 3, rng)
                if round_ == 5:
                    raise _Abort
        except _Abort:
            pass
        assert_settled(mirror.engine)
        mirror.assert_consistent()
        with graph.transaction():
            tb.repair(model, name, view.rows(), 3, rng)
        assert_settled(mirror.engine)
        mirror.assert_consistent()


def test_probe_sides_hold_no_cells():
    model = tb.generate_railway(routes=5, seed=4)
    engine = QueryEngine(model.graph)
    for query in tb.QUERIES.values():
        engine.register(query)
    joins = probe_joins(engine)
    for node in joins:
        stored = node.left_index if node.probe_side == RIGHT else node.right_index
        probed = node.right_index if node.probe_side == RIGHT else node.left_index
        assert probed is None
        assert node.memory_cells() == stored.cells()
    # ConnectedSegments reads monitoredBy six times, each from the graph
    sides = [node.probe.source for node in joins]
    assert sum("monitoredBy" in source.types for source in sides) >= 5


# -- triggers, self-joins, edge shapes ------------------------------------------


def test_a_trigger_writes_to_a_probe_sides_relation_mid_propagation():
    graph = PropertyGraph()
    vertices = [graph.add_vertex(["P"]) for _ in range(5)]
    for a, b in zip(vertices, vertices[1:]):
        graph.add_edge(a, b, "K")
    mirror = OracleMirror(graph)
    path = mirror.register("MATCH (a:P)-[:K]->(b:P)-[:K]->(c:P) RETURN a, b, c")
    mirror.register("MATCH (a:P)-[:K]->(b:P) RETURN a, count(*) AS n")
    (join,) = [n for n in path.network.nodes() if isinstance(n, JoinNode)]
    assert join.probe is not None
    written = []

    def close_a_triangle(delta):
        # a write to the K edges the probe side reads, from inside the
        # propagation of the write that fired it
        for (a, b, c), multiplicity in delta.items():
            if multiplicity > 0 and not written:
                written.append(graph.add_edge(c, a, "K"))
                graph.add_edge(a, c, "K")

    path.on_change(close_a_triangle)
    graph.add_edge(vertices[4], vertices[0], "K")
    assert written
    assert_settled(mirror.engine)
    mirror.assert_consistent()
    graph.remove_edge(written[0])
    mirror.assert_consistent()


@pytest.mark.parametrize("scope", ["transaction", "batch"])
def test_a_trigger_writes_mid_drain_in_a_batch(scope):
    """Batched engine, an autocommitted edge whose path rows come only
    from the join's drained entry: the callback writes to the stored and
    probe side's relation in a batch of its own.  It runs once the commit
    has drained, with no propagation in flight, so its write is the next
    commit: one graph read for each of the two commits."""
    graph = PropertyGraph()
    v = [graph.add_vertex(["P"]) for _ in range(5)]
    graph.add_edge(v[1], v[2], "K")
    mirror = OracleMirror(graph, batch_transactions=True)
    path = mirror.register("MATCH (a:P)-[:K]->(b:P)-[:K]->(c:P) RETURN a, c")
    mirror.register("MATCH (a:P)-[:K]->(b:P) RETURN a, count(*) AS n")
    (join,) = [n for n in path.network.nodes() if isinstance(n, JoinNode)]
    assert join.probe is not None
    propagation = mirror.engine._incremental.input_layer.propagation
    in_flight = []

    def write_in_a_batch(delta):
        if in_flight:
            return
        in_flight.append((propagation.active, dict(propagation.deferred)))
        with graph.transaction() if scope == "transaction" else mirror.engine.batch():
            graph.add_edge(v[2], v[3], "K")
            graph.add_edge(v[3], v[4], "K")

    path.on_change(write_in_a_batch)
    reads = join.probe_reads
    graph.add_edge(v[0], v[1], "K")
    assert in_flight == [(False, {})]  # after the commit's drain
    assert join.probe_reads - reads == 2  # one read per commit
    assert_settled(mirror.engine)
    mirror.assert_consistent()
    assert sorted(path.rows()) == sorted([(v[0], v[2]), (v[1], v[3]), (v[2], v[4])])


SHAPES = [
    # one input on both sides of a ⋈
    "MATCH (x:P)-[:K]->(y:P), (y)-[:K]->(x) RETURN x, y",
    "MATCH (x:P)-[:K]->(y)-[:K]->(z) RETURN x, y, z",
    # undirected, with self-loops in the graph
    "MATCH (x:P)-[:K]-(y)-[:K]-(z:P) RETURN x, z",
    "MATCH (x)-[e:K]-(y:Q), (y)-[:L]->(z) RETURN x, e, z",
    # a self-loop pattern beside a join
    "MATCH (x:P)-[:K]->(x)-[:L]->(y) RETURN x, y",
    # labels on the key endpoint, and a © probed by its id
    "MATCH (x:P)-[:K]->(y:Q)-[:L]->(z:R) RETURN x, y, z",
    "MATCH (x:P)-[:K]->(y:Q {v: 1}) RETURN x, y.w AS w",
]

LABELS = ("P", "Q", "R")


def churn(graph: PropertyGraph, rng: random.Random, vertices: list[int]) -> None:
    for _ in range(5):
        vertex = rng.choice(vertices)
        label = rng.choice(LABELS)
        if graph.has_label(vertex, label):
            graph.remove_label(vertex, label)
        else:
            graph.add_label(vertex, label)
    source, target = rng.choice(vertices), rng.choice(vertices)
    graph.add_edge(source, target, rng.choice(("K", "L")))
    edges = list(graph.edges())
    graph.remove_edge(rng.choice(edges))
    graph.set_vertex_property(rng.choice(vertices), "v", rng.choice((1, 2)))
    graph.set_vertex_property(rng.choice(vertices), "w", rng.choice(("a", "b")))


@BATCHED
def test_shapes_under_edge_and_label_churn(batched):
    rng = random.Random(44)
    graph = PropertyGraph()
    vertices = [
        graph.add_vertex(rng.sample(LABELS, rng.randint(0, 2)), {"v": 1, "w": "a"})
        for _ in range(9)
    ]
    for vertex in vertices[:3]:
        graph.add_edge(vertex, vertex, "K")
        graph.add_edge(vertex, vertex, "L")
    for _ in range(20):
        graph.add_edge(rng.choice(vertices), rng.choice(vertices), rng.choice(("K", "L")))
    mirror = OracleMirror(graph, batch_transactions=batched)
    for query in SHAPES:
        mirror.register(query)
    assert len(probe_joins(mirror.engine)) >= len(SHAPES) - 1
    mirror.assert_consistent()
    for round_ in range(24):
        if round_ % 3 == 0:
            churn(graph, rng, vertices)
        else:
            try:
                with graph.transaction():
                    churn(graph, rng, vertices)
                    if round_ % 3 == 2:
                        raise _Abort
            except _Abort:
                pass
        assert_settled(mirror.engine)
        mirror.assert_consistent()


@BATCHED
def test_label_flips_on_the_key_endpoint(batched):
    graph = PropertyGraph()
    p = [graph.add_vertex(["P"]) for _ in range(3)]
    q = [graph.add_vertex(["Q"]) for _ in range(3)]
    r = graph.add_vertex(["R"])
    for a in p:
        for b in q:
            graph.add_edge(a, b, "K")
    for b in q:
        graph.add_edge(b, r, "L")
    mirror = OracleMirror(graph, batch_transactions=batched)
    view = mirror.register("MATCH (x:P)-[:K]->(y:Q)-[:L]->(z:R) RETURN x, y, z")
    assert len(view.rows()) == 9
    for b in q:
        with graph.transaction():
            graph.remove_label(b, "Q")
        mirror.assert_consistent()
    with graph.transaction():
        for b in q:
            graph.add_label(b, "Q")
        graph.remove_label(r, "R")
        graph.add_label(r, "R")
    mirror.assert_consistent()
    assert len(view.rows()) == 9


# -- restricted replay -----------------------------------------------------------


@BATCHED
def test_bindings_registered_between_writes_replay_from_a_probe_join(batched):
    net = generate_snb(persons=12, forums=2, posts_per_forum=4, comments_per_post=2)
    graph = net.graph
    mirror = OracleMirror(graph, batch_transactions=batched)
    template = BINDING_TEMPLATES["likes_by_author"]
    names = [graph.vertex_property(person, "name") for person in net.persons]
    for round_, name in enumerate(names[:6]):
        mirror.register(template, {"name": name})
        mirror.assert_consistent()
        updates = update_stream(net, 15, seed=round_)
        if batched:
            with graph.transaction():
                for _, apply in updates:
                    apply()
        else:
            for _, apply in updates:
                apply()
        mirror.assert_consistent()
    assert probe_joins(mirror.engine)


def test_restricted_state_is_the_full_state_narrowed():
    """A probe join's restricted ``state_delta`` holds every row of its
    full state that meets the restriction, at its exact multiplicity —
    restricted on either side, by id or by a pushed property."""
    net = generate_snb(persons=10, forums=2, posts_per_forum=4, comments_per_post=2)
    engine = QueryEngine(net.graph)
    for query in SNB_QUERIES.values():
        engine.register(query, {"name": "person-3"})
    checked = 0
    for node in probe_joins(engine):
        full = dict(node.state_delta().items())
        for row in list(full)[:4]:
            for column in range(len(row)):
                restriction = ((column, row[column]),)
                held = dict(node.state_delta(restriction).items())
                wanted = {r: m for r, m in full.items() if r[column] == row[column]}
                assert {r: held.get(r) for r in wanted} == wanted, (node.schema.names, column)
                checked += 1
    assert checked > 50


# -- the propagation's queue, and draining ---------------------------------------


class _Join:
    """A stand-in for a ⋈ that records what reaches its fold."""

    def __init__(self, propagation):
        self.rank = propagation.rank()
        self.folded = []

    def fold_deferred(self, delta, side):
        self.folded.append((delta, side))


def test_waiting_deltas_merge_unconsolidated_in_arrival_order():
    propagation = Propagation()
    join, other = _Join(propagation), _Join(propagation)
    retract = ColumnDelta([["x"], [1]], [-1], 2)
    insert = ColumnDelta([["x"], [True]], [1], 2)
    propagation.begin()
    propagation.defer(join, retract, LEFT)
    lone = ColumnDelta([["y"]], [1], 1)
    propagation.defer(other, lone, RIGHT)
    propagation.defer(join, insert, LEFT)
    assert list(propagation.deferred) == [(join, LEFT), (other, RIGHT)]
    propagation.end()
    ((merged, side),) = join.folded
    assert side == LEFT and type(merged) is ColumnDelta
    # two occurrences, the retraction first, 1 and True kept apart
    rows = list(merged.items())
    assert rows == [(("x", 1), -1), (("x", True), 1)]
    assert [type(row[1]) for row, _ in rows] == [int, bool]
    # a lone delta passes unchanged
    ((alone, side),) = other.folded
    assert side == RIGHT and alone is lone
    assert not propagation.active and not propagation.deferred


def test_a_delta_for_a_drained_entry_queues_again():
    """A write from a callback downstream reaches a join whose entry has
    already drained: it waits in a new entry, behind the first."""
    propagation = Propagation()
    first, second = ColumnDelta([[1]], [1], 1), ColumnDelta([[2]], [1], 1)

    class Downstream(_Join):
        def fold_deferred(self, delta, side):
            super().fold_deferred(delta, side)
            propagation.defer(upstream, second, LEFT)

    upstream, downstream = _Join(propagation), Downstream(propagation)
    propagation.begin()
    propagation.defer(downstream, first, RIGHT)
    propagation.defer(upstream, first, LEFT)
    propagation.end()
    assert [delta for delta, _ in upstream.folded] == [first, second]
    assert [delta for delta, _ in downstream.folded] == [first]
    assert not propagation.deferred


def test_each_probe_join_reads_the_graph_once_per_commit():
    model = tb.generate_railway(routes=6, seed=3)
    graph = model.graph
    mirror = OracleMirror(graph, batch_transactions=True)
    for query in tb.QUERIES.values():
        mirror.register(query)
    joins = probe_joins(mirror.engine)
    rng = random.Random(11)
    names = list(tb.QUERIES)
    most = 0
    for round_ in range(12):
        name = names[round_ % len(names)]
        view = mirror.views[names.index(name)]
        for commit in ("inject", "repair"):
            before = [join.probe_reads for join in joins]
            with graph.transaction():
                if commit == "repair":
                    tb.repair(model, name, view.rows(), 4, rng)
                elif name == "ConnectedSegments":
                    for _ in range(4):
                        tb.inject(model, name, 3, rng)
                else:
                    tb.inject(model, name, 3, rng)
            reads = [join.probe_reads - old for join, old in zip(joins, before)]
            assert max(reads) <= 1, (name, commit, reads)
            most = max(most, sum(reads))
            assert_settled(mirror.engine)
            mirror.assert_consistent()
    assert most >= 5


@BATCHED
def test_detaching_every_view_drains_every_memory(batched):
    net = generate_snb(persons=10, forums=2, posts_per_forum=3, comments_per_post=2)
    graph = net.graph
    engine = QueryEngine(graph, batch_transactions=batched)
    views = [engine.register(query, {"name": "person-2"}) for query in SNB_QUERIES.values()]
    for _, apply in update_stream(net, 20, seed=3):
        if batched:
            with graph.transaction():
                apply()
        else:
            apply()
        assert_settled(engine)
    assert engine.memory_cells() > 0
    for view in views:
        view.detach()
    layer = engine._incremental.input_layer
    assert engine.memory_cells() == 0
    assert layer.node_count == 0
    assert_settled(engine)


# -- γ over a value that trades its type -----------------------------------------


@BATCHED
def test_a_group_key_that_trades_its_type_moves_its_count(batched):
    graph = PropertyGraph()
    first = graph.add_vertex(["N"], {"v": 1})
    graph.add_vertex(["N"], {"v": True})
    mirror = OracleMirror(graph, batch_transactions=batched)
    view = mirror.register("MATCH (a:N) RETURN toString(a.v) AS s, count(*) AS n")
    assert sorted(view.rows()) == [("1", 1), ("true", 1)]
    with graph.transaction():
        graph.set_vertex_property(first, "v", True)
    assert view.rows() == [("true", 2)]
    mirror.assert_consistent()


# -- the plan a cyclic pattern builds --------------------------------------------


def joins_and_selects(plan: ops.Operator):
    return [op for op in plan.walk() if isinstance(op, (ops.Join, ops.Select))]


def test_a_revisited_vertex_joins_on_both_endpoints():
    compiled = compile_query(SNB_QUERIES["ic5_forum_posts"])
    assert any(
        isinstance(op, ops.Select) and isinstance(op.children[0], ops.Join)
        for op in compiled.plan.walk()
    )
    built = built_plan(compiled)
    keys = [set(op.common) for op in built.walk() if isinstance(op, ops.Join)]
    assert {"f", "po"} in keys
    assert not any(isinstance(op, ops.Select) for op in built.walk())


@pytest.mark.parametrize(
    "query",
    [
        "MATCH (a:P)-[:T]->(a) RETURN a",
        "MATCH (a:P)-[:T]->(a)-[:U]->(b) RETURN a, b",
        "MATCH (a:P)-[:T]->(b) OPTIONAL MATCH (b)-[:U]->(c) WHERE c = a RETURN a, b, c",
        "MATCH (a:P)-[:T*1..2]->(b)-[:U]->(a) RETURN a, b",
    ],
    ids=["self-loop", "self-loop-joined", "optional", "transitive"],
)
def test_self_loops_outer_and_transitive_joins_keep_their_selection(query):
    compiled = compile_query(query)
    before = [op for op in compiled.plan.walk() if isinstance(op, ops.Select)]
    after = [op for op in built_plan(compiled).walk() if isinstance(op, ops.Select)]
    assert len(after) == len(before)


@BATCHED
def test_cyclic_patterns_equal_recomputation(batched):
    net = generate_snb(persons=12, forums=3, posts_per_forum=4, comments_per_post=2, seed=9)
    graph = net.graph
    mirror = OracleMirror(graph, batch_transactions=batched)
    mirror.register(SNB_QUERIES["ic5_forum_posts"])
    mirror.register("MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(a) RETURN a, b")
    for round_ in range(4):
        updates = update_stream(net, 15, seed=30 + round_)
        with graph.transaction():
            for _, apply in updates:
                apply()
        mirror.assert_consistent()


def test_profile_and_explain_mark_the_probe_side():
    graph = PropertyGraph()
    a, b = graph.add_vertex(["P"]), graph.add_vertex(["P"])
    graph.add_edge(a, b, "K")
    engine = QueryEngine(graph)
    query = "MATCH (x:P)-[:K]->(y:P)-[:K]->(z:P) RETURN x, z"
    view = engine.register(query)
    graph.add_edge(b, a, "K")
    profile = view.profile()
    assert "right side probes the graph: 0 cells, " in profile
    built = engine.explain(query).split("== Built plan")[1]
    assert "side probes the graph: 0 cells" in built
    (join,) = [n for n in view.network.nodes() if isinstance(n, JoinNode)]
    assert join.probe_reads > 0 and join.probe_side in (LEFT, RIGHT)
    costs = engine.view_costs()
    assert costs["total"] >= join.probe_rows > 0


# -- edge ids: never a join key, but a restricted replay's key --------------------


def test_no_join_keys_on_an_edge_id():
    """A ⋈ keys on the variables its sides share, and a relationship
    variable is bound once: the compiler refuses to rebind one, and
    ``WHERE f = e`` stays a σ over ×.  So no probe side reads by edge id
    when a join pairs its rows."""
    with pytest.raises(CypherSemanticError, match="relationship variable 'e' is already bound"):
        compile_query("MATCH (a)-[e:K]->(b) MATCH (c)-[e]->(d) RETURN a, d")
    equal = built_plan(
        compile_query("MATCH (a)-[e:K]->(b), (c)-[f:K]->(d) WHERE f = e RETURN a, d")
    )
    assert [op.common for op in equal.walk() if isinstance(op, ops.Join)] == [()]
    net = generate_snb(persons=8, forums=2, posts_per_forum=3, comments_per_post=2)
    engine = QueryEngine(net.graph)
    name = net.graph.vertex_property(net.persons[2], "name")
    for query in list(SNB_QUERIES.values()) + SHAPES:
        engine.register(query, {"name": name})
    railway = QueryEngine(tb.generate_railway(routes=3, seed=1).graph)
    for query in tb.QUERIES.values():
        railway.register(query)
    joins = probe_joins(engine) + probe_joins(railway)
    assert joins and all(join.probe.column != 1 for join in joins)


@BATCHED
def test_a_binding_on_an_edge_replays_by_edge_id(batched, monkeypatch):
    """Two bindings of ``e = $x`` lift the shape; the second's population
    restricts the probe side ``(b)-[e:K]->(c)`` by edge id, a read of one
    edge record.  Every binding's view stays equal to recomputation."""
    reads = []
    edge_record = PropertyGraph.edge_record

    def counted(graph, edge_id):
        reads.append(edge_id)
        return edge_record(graph, edge_id)

    monkeypatch.setattr(PropertyGraph, "edge_record", counted)
    graph = PropertyGraph()
    v = [graph.add_vertex(["P"]) for _ in range(5)]
    k = [graph.add_edge(v[i], v[i + 1], "K") for i in range(4)]
    for i in range(4):
        graph.add_edge(v[i + 1], v[i], "L")
    mirror = OracleMirror(graph, batch_transactions=batched)
    query = "MATCH (a)-[:L]->(b)-[e:K]->(c) WHERE e = $x RETURN a, c"
    for edge in (k[1], k[2], k[1]):
        mirror.register(query, {"x": edge})
        mirror.assert_consistent()
    assert k[2] in reads and k[1] in reads
    rng = random.Random(4)
    for _ in range(8):
        with graph.transaction():
            graph.add_edge(rng.choice(v), rng.choice(v), rng.choice(("K", "L")))
            edges = sorted(graph.edges("L"))
            graph.remove_edge(rng.choice(edges))
        mirror.assert_consistent()
    mirror.register(query, {"x": k[3]})
    mirror.assert_consistent()
