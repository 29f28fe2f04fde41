"""The sharing layer's deterministic memory checks, on one engine.

Two seeded, smoke-sized workloads, replayed through the public API and
held to recomputation at the end:

* *overlapping views* — eight views over one ``(p:Post)-[:REPLY]->(c:Comm)``
  core (most behind the same ``p.lang = c.lang`` σ), differing in the
  projection, dedup or aggregate on top;
* *per-user views* — one parameterised query registered under 12
  bindings (and, for the growth check, under 6).

A view counts its shared nodes fully, so ``Σ view.memory_cells()`` is
what unshared networks would hold, and its ratio to
``engine.memory_cells()`` (shared nodes counted once) is the memory the
layer saves.  The layer's own cells must stay near-flat when the bindings
double.  Each bound is the figure measured when the check was pinned,
with 30 % tolerance; the cell counts are exactly reproducible, so a
breach is a structural regression, not noise.
"""

import random

from repro import PropertyGraph, QueryEngine

#: Σ view cells / engine cells, as measured when pinned
OVERLAP_RATIO = 2.42
PER_USER_RATIO = 10.86
#: layer cells at 12 bindings / at 6, as measured when pinned
PER_USER_GROWTH = 1.0
TOLERANCE = 0.30

LANGS = ("en", "de", "hu", "fr")
OVERLAP_SHAPES = (
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang "
    "RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN DISTINCT p",
    "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang RETURN y, x",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c.lang AS lang, count(*) AS n",
)
PER_USER_QUERY = (
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.uid = $uid "
    "RETURN a.uid AS au, b.uid AS bu"
)


def overlapping_views() -> tuple[QueryEngine, list]:
    """12 posts with 3 comments each, 8 views, 150 random mutations."""
    rng = random.Random(53)
    graph = PropertyGraph()
    posts = [
        graph.add_vertex(labels=["Post"], properties={"lang": rng.choice(LANGS)})
        for _ in range(12)
    ]
    for post in posts:
        for _ in range(3):
            comment = graph.add_vertex(
                labels=["Comm"], properties={"lang": rng.choice(LANGS)}
            )
            graph.add_edge(post, comment, "REPLY")
    engine = QueryEngine(graph)
    queries = [OVERLAP_SHAPES[i % len(OVERLAP_SHAPES)] for i in range(8)]
    views = [(engine.register(query), query, None) for query in queries]
    rng = random.Random(54)
    comments = list(range(13, 13 + 36))
    live_edges = list(range(1, 37))
    next_vertex, next_edge = 49, 37
    for _ in range(150):
        roll = rng.random()
        if roll < 0.30:
            post, lang = rng.choice(posts), rng.choice(LANGS)
            graph.add_vertex(labels=["Comm"], properties={"lang": lang})
            graph.add_edge(post, next_vertex, "REPLY")
            comments.append(next_vertex)
            live_edges.append(next_edge)
            next_vertex += 1
            next_edge += 1
        elif roll < 0.55:
            vertex = rng.choice(posts if rng.random() < 0.5 else comments)
            graph.set_vertex_property(vertex, "lang", rng.choice(LANGS))
        elif roll < 0.75 and live_edges:
            edge = live_edges.pop(rng.randrange(len(live_edges)))
            if graph.has_edge(edge):
                graph.remove_edge(edge)
        else:
            vertex = rng.choice(comments)
            if "Flagged" in graph.labels_view(vertex):
                graph.remove_label(vertex, "Flagged")
            else:
                graph.add_label(vertex, "Flagged")
    return engine, views


def per_user_views(bindings: int) -> tuple[QueryEngine, list]:
    """24 persons with out-degree ≤ 3, one view per binding, 120 random
    mutations."""
    rng = random.Random(71)
    graph = PropertyGraph()
    people = [
        graph.add_vertex(labels=["Person"], properties={"uid": uid})
        for uid in range(24)
    ]
    for source in people:
        for target in rng.sample(people, 3):
            if source != target:
                graph.add_edge(source, target, "KNOWS")
    engine = QueryEngine(graph)
    views = [
        (engine.register(PER_USER_QUERY, {"uid": uid}), PER_USER_QUERY, {"uid": uid})
        for uid in range(bindings)
    ]
    rng = random.Random(72)
    # edge ids as if every sampled pair had been added (self-pairs too)
    live_edges = list(range(1, 24 * 3 + 1))
    next_edge = 24 * 3 + 1
    for _ in range(120):
        roll = rng.random()
        if roll < 0.45:
            source, target = rng.choice(people), rng.choice(people)
            if source != target:
                graph.add_edge(source, target, "KNOWS")
                live_edges.append(next_edge)
                next_edge += 1
        elif roll < 0.75 and live_edges:
            edge = live_edges.pop(rng.randrange(len(live_edges)))
            if graph.has_edge(edge):
                graph.remove_edge(edge)
        else:
            vertex = rng.choice(people)
            graph.set_vertex_property(vertex, "uid", rng.randrange(48))
    return engine, views


def assert_exact(engine: QueryEngine, views: list) -> None:
    for view, query, parameters in views:
        recomputed = engine.evaluate(query, parameters, use_views=False)
        assert view.multiset() == recomputed.multiset(), (query, parameters)


def memory_ratio(engine: QueryEngine, views: list) -> float:
    return sum(view.memory_cells() for view, _, _ in views) / engine.memory_cells()


def layer_cells(engine: QueryEngine) -> int:
    return engine._incremental.input_layer.memory_cells()


def test_overlapping_views_hold_their_shared_core_once():
    engine, views = overlapping_views()
    assert_exact(engine, views)
    assert memory_ratio(engine, views) >= OVERLAP_RATIO * (1 - TOLERANCE)


def test_per_user_views_hold_their_shared_core_once():
    engine, views = per_user_views(12)
    assert_exact(engine, views)
    assert memory_ratio(engine, views) >= PER_USER_RATIO * (1 - TOLERANCE)


def test_layer_cells_stay_flat_when_bindings_double():
    half, half_views = per_user_views(6)
    full, full_views = per_user_views(12)
    assert_exact(full, full_views)
    growth = layer_cells(full) / layer_cells(half)
    assert growth <= PER_USER_GROWTH * (1 + TOLERANCE)
