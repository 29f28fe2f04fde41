"""Networks built from narrowed plans: what their join memories hold, and
that they stay equal to recomputation.

The engine builds :func:`~repro.compiler.optimizer.built_plan`, not
``compiled.plan``: every ⋈ / ⟕ / ▷ side is cut to the columns read above
it, and a label-only © joined to an endpoint of a ⇑ is folded into that
⇑'s endpoint labels.  The walker below checks both on the live networks
of every SNB and Train Benchmark view.  The maintenance tests move labels
on folded endpoints that have incident edges (directed and undirected
patterns, self-loops, rolled-back transactions, per event and batched)
and register new bindings of a parameterised view between writes, so
restricted replay runs over a narrowed lifted core.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.algebra import ops
from repro.algebra.fra import _expressions_of
from repro.algebra.printer import format_plan
from repro.compiler.optimizer import built_plan
from repro.compiler.pipeline import compile_query
from repro.cypher import ast
from repro.rete.nodes.base import LEFT, RIGHT
from repro.rete.nodes.join import AntiJoinNode
from repro.rete.sharing import subplan_cache_key
from repro.workloads.snb import SNB_QUERIES, generate_snb, update_stream
from repro.workloads.trainbenchmark import QUERIES as TRAIN_QUERIES
from repro.workloads.trainbenchmark import generate_railway

from .oracle import OracleMirror
from .test_populate import BINDING_TEMPLATES

JOIN_FAMILY = (ops.Join, ops.LeftOuterJoin, ops.AntiJoin)


def reads_above(plan: ops.Operator) -> dict[int, frozenset[str]]:
    """``id(op)`` → every name an operator above *op* reads (the root's
    consumer reads its whole schema)."""
    found: dict[int, frozenset[str]] = {}

    def visit(op: ops.Operator, above: frozenset[str]) -> None:
        found[id(op)] = above
        own = {name for expr in _expressions_of(op) for name in ast.free_variables(expr)}
        if isinstance(op, JOIN_FAMILY):
            own |= set(op.common)
        elif isinstance(op, ops.TransitiveJoin):
            own.add(op.source)
        elif isinstance(op, (ops.Dedup, ops.Union, ops.Sort, ops.Skip, ops.Limit)):
            own |= set(op.schema.names)
        for child in op.children:
            visit(child, above | own)

    visit(plan, frozenset(plan.schema.names))
    return found


def unread_side_columns(plan: ops.Operator) -> list[tuple[str, str]]:
    """``(operator, column)`` for every join-side column nothing above
    reads, but for the entity id of a property column read above (it keeps
    rows of different entities apart when their values are ``==`` but of
    different types)."""
    above = reads_above(plan)
    unread = []
    for op in plan.walk():
        if not isinstance(op, JOIN_FAMILY):
            continue
        left, right = op.children
        readable = above[id(op)] | set(op.common)
        for side in (left, right):
            if side is right and isinstance(op, ops.AntiJoin):
                readable = set(op.common)
            subjects = {
                projection.output: projection.subject
                for base in side.walk()
                for projection in getattr(base, "projections", ())
            }
            kept = readable | {subjects[n] for n in readable if n in subjects}
            unread += [
                (type(op).__name__, name)
                for name in side.schema.names
                if name not in kept
            ]
    return unread


def folds_missed(plan: ops.Operator) -> list[str]:
    """Variables of label-only © still joined to an endpoint of a ⇑
    (bare or under σ)."""
    missed = []
    for op in plan.walk():
        if isinstance(op, ops.Join):
            for scan, edges in (op.children, op.children[::-1]):
                while isinstance(edges, ops.Select):
                    edges = edges.children[0]
                if (
                    isinstance(scan, ops.GetVertices)
                    and not scan.projections
                    and isinstance(edges, ops.GetEdges)
                    and scan.var in (edges.src, edges.tgt)
                ):
                    missed.append(scan.var)
    return missed


def check_stores(engine: QueryEngine, view) -> int:
    """Every join-family node of *view* stores exactly its sides' columns,
    and a ⋈ probe side stores nothing; returns how many such nodes were
    checked."""
    layer = engine._incremental.input_layer
    parameters = view.network.ctx.parameters
    checked = 0
    for op in view.network.plan.walk():
        if not isinstance(op, JOIN_FAMILY):
            continue
        node = layer.subplan_lookup(subplan_cache_key(op, parameters))
        assert node is not None, op
        left, right = op.children
        probe_side = getattr(node, "probe_side", None)
        if probe_side == LEFT:
            assert node.left_index is None
            assert node.memory_cells() == node.right_index.cells()
        else:
            assert node.left_index.width == len(left.schema)
        if isinstance(node, AntiJoinNode):
            assert all(len(key) == len(op.common) for key in node.right_counts)
        elif probe_side == RIGHT:
            assert node.right_index is None
            assert node.memory_cells() == node.left_index.cells()
        else:
            assert node.right_index.width == len(right.schema)
        checked += 1
    return checked


@pytest.fixture(scope="module")
def workload_engines():
    snb = generate_snb(persons=12, forums=2, posts_per_forum=4, comments_per_post=2)
    snb_engine = QueryEngine(snb.graph)
    name = snb.graph.vertex_property(snb.persons[3], "name")
    for query in SNB_QUERIES.values():
        snb_engine.register(query, {"name": name})
    railway = generate_railway(routes=5, seed=4)
    train_engine = QueryEngine(railway.graph)
    for query in TRAIN_QUERIES.values():
        train_engine.register(query)
    return snb_engine, train_engine


def test_join_memories_hold_only_what_is_read_above(workload_engines):
    joins = 0
    for engine in workload_engines:
        for view in engine.views:
            built = view.network.plan
            assert unread_side_columns(built) == [], view.compiled.text
            assert folds_missed(built) == [], view.compiled.text
            joins += check_stores(engine, view)
    assert joins >= 20


def test_the_walker_sees_the_unnarrowed_plans(workload_engines):
    """Without the pass the same walker finds unread columns and joins
    left to fold, so its silence on the built plans means something."""
    unread = missed = 0
    for engine in workload_engines:
        for view in engine.views:
            unread += len(unread_side_columns(view.compiled.plan))
            missed += len(folds_missed(view.compiled.plan))
    assert unread >= 20 and missed >= 5


#: patterns whose label-only © folds into a ⇑: at the source, at the
#: target, undirected, with two labels, label-less, and a self-loop
FOLD_QUERIES = [
    "MATCH (a:Post)-[:REPLY]->(b) RETURN a, b",
    "MATCH (a:Post)-[:REPLY]->(b:Comm) RETURN b, count(*) AS n",
    "MATCH (a:Post)<-[:REPLY]-(b) RETURN b.lang AS lang, count(*) AS n",
    "MATCH (a:Post)-[e:KNOWS]-(b:Person) RETURN a, e, b",
    "MATCH (a:Post:Comm)-[:KNOWS]-(b) RETURN a, b",
    "MATCH (a)-[:REPLY]->(b:Post) RETURN a, b",
    "MATCH (a:Comm)-[:REPLY]->(a) RETURN a",
    "MATCH (a:Post)-[:REPLY]->(b)-[:KNOWS]-(c:Person) RETURN a, c",
]

LABELS = ("Post", "Comm", "Person")


def test_fold_queries_fold():
    for query in FOLD_QUERIES:
        compiled = compile_query(query)
        assert folds_missed(compiled.plan), query
        assert folds_missed(built_plan(compiled)) == [], query


def label_churn(graph: PropertyGraph, rng: random.Random, vertices: list[int]):
    """Label moves on vertices with incident edges, plus some edge churn."""
    for _ in range(6):
        vertex = rng.choice(vertices)
        label = rng.choice(LABELS)
        if graph.has_label(vertex, label):
            graph.remove_label(vertex, label)
        else:
            graph.add_label(vertex, label)
    if rng.random() < 0.5:
        source, target = rng.choice(vertices), rng.choice(vertices)
        graph.add_edge(source, target, rng.choice(("REPLY", "KNOWS")))


class _Abort(Exception):
    pass


@pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
def test_labels_moving_on_folded_endpoints(batched):
    rng = random.Random(43)
    graph = PropertyGraph()
    vertices = [
        graph.add_vertex(
            labels=rng.sample(LABELS, rng.randint(0, 2)),
            properties={"lang": rng.choice(("en", "de"))},
        )
        for _ in range(10)
    ]
    for vertex in vertices[:4]:  # self-loops of both types
        graph.add_edge(vertex, vertex, "REPLY")
        graph.add_edge(vertex, vertex, "KNOWS")
    for _ in range(24):
        graph.add_edge(
            rng.choice(vertices), rng.choice(vertices), rng.choice(("REPLY", "KNOWS"))
        )
    mirror = OracleMirror(graph, batch_transactions=batched)
    for query in FOLD_QUERIES:
        mirror.register(query)
    mirror.assert_consistent()
    for round_ in range(30):
        if round_ % 3 == 0:
            label_churn(graph, rng, vertices)
        else:
            try:
                with graph.transaction():
                    label_churn(graph, rng, vertices)
                    if round_ % 3 == 2:
                        raise _Abort
            except _Abort:
                pass
        mirror.assert_consistent()


@pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
def test_bindings_registered_between_writes_replay_a_narrowed_core(batched):
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
    compiled = mirror.views[0].compiled
    lifted = built_plan(compiled, lifted=True)
    assert all(view.network.plan is lifted for view in mirror.views)
    assert unread_side_columns(lifted) == [] and folds_missed(lifted) == []


def test_explain_prints_the_built_plan_beside_the_compiled_one():
    engine = QueryEngine(PropertyGraph())
    text = engine.explain(BINDING_TEMPLATES["likes_by_author"])
    compiled, built = text.split("== Built plan")
    built = built.split("== View answering")[0]
    # the compiled FRA keeps its © ⋈ ⇑; the built plan folds it and
    # shows each upper join side's kept columns
    assert "©(fan:Person)" in compiled and "©(fan:Person)" not in built
    assert "⇑(fan:Person)-[_e1:LIKES]->(m:Post)" in built
    assert "π[m]" in built and "π[m, auth, auth.name]" in built
    # a query register() rejects has no built plan to show
    assert "== Built plan" not in engine.explain("MATCH (n) RETURN n LIMIT 1")


def test_explain_prints_the_plan_register_would_build_now():
    """A second binding of a shape is built lifted, and so is explained."""
    engine = QueryEngine(PropertyGraph())
    template = BINDING_TEMPLATES["likes_by_author"]
    compiled = engine.compile(template)

    def explained(name: str) -> str:
        text = engine.explain(template, {"name": name})
        built = text.split("== Built plan (what register builds now) ==\n")[1]
        return built.split("\n\n== View answering")[0]

    assert "σ[(auth.name = $name)]\n          │" in explained("a")
    engine.register(template, {"name": "a"})
    # the pushed-down plan for the live binding, the lifted one for another
    pushed = format_plan(built_plan(compiled))
    lifted = format_plan(built_plan(compiled, lifted=True))
    assert pushed != lifted

    def strip(text: str) -> str:  # the operator lines, without generated code
        # or the notes on a live ⋈'s probe side
        return "\n".join(
            line for line in text.splitlines() if "│" not in line and "└" not in line
        )

    assert strip(explained("a")) == strip(pushed)
    assert strip(explained("b")) == strip(lifted)
    engine.register(template, {"name": "b"})
    assert strip(explained("a")) == strip(lifted)


#: a value read above a join side from a ⇑'s other MATCH: ``1``, ``True``
#: and ``1.0`` are ``==`` in Python, and ``0.0`` / ``-0.0`` print apart
CROSS_MATCH_QUERIES = [
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) WHERE a.v = b.v RETURN m",
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) RETURN m, toString(a.v) AS s",
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) WHERE a.v = b.v "
    "RETURN b, count(*) AS n",
]


@pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
@pytest.mark.parametrize(
    "first, second", [(1, True), (True, 1), (1, 1.0), (0.0, -0.0)]
)
def test_values_equal_across_types_stay_apart_on_a_join_side(batched, first, second):
    graph = PropertyGraph()
    mirror = OracleMirror(graph, batch_transactions=batched)
    for query in CROSS_MATCH_QUERIES:
        mirror.register(query)
    m = graph.add_vertex(labels=["M"])
    a1 = graph.add_vertex(labels=["N"], properties={"v": first})
    a2 = graph.add_vertex(labels=["N"], properties={"v": second})
    b = graph.add_vertex(labels=["N"], properties={"v": second})
    with graph.transaction():
        graph.add_edge(a1, m, "E")
        graph.add_edge(a2, m, "E")
        graph.add_edge(b, m, "F")
    mirror.assert_consistent()
    # the values trade types, and a third arrives
    for vertex, value in ((a1, second), (a2, first), (b, first)):
        graph.set_vertex_property(vertex, "v", value)
        mirror.assert_consistent()
    a3 = graph.add_vertex(labels=["N"], properties={"v": second})
    graph.add_edge(a3, m, "E")
    mirror.assert_consistent()
    for view in mirror.views:
        assert unread_side_columns(view.network.plan) == []
