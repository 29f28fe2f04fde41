"""E13 — ablation: cost-based join ordering vs. syntactic order.

The compiler's default join tree follows the query's written pattern
order; in a Rete network a bad order inflates every join memory and every
update's delta work.  This ablation registers the same query compiled both
ways over a label-skewed social graph (few Persons moderating many Posts
with many Comments) and measures registration time, join-memory size, and
per-update latency.

Queries are deliberately written "big relations first" — the realistic
failure mode this pass exists for (users write patterns in narrative
order, not cost order).
"""

from __future__ import annotations

import random

from repro import PropertyGraph, compile_query
from repro.bench import Timer, format_table, speedup
from repro.compiler.stats import GraphStatistics
from repro.rete.engine import IncrementalEngine

#: Written pessimally: the Comment-Comment self-join leads, the highly
#: selective Moderator access comes last.
QUERY = (
    "MATCH (c1:Comment)-[:REPLY]->(c2:Comment), "
    "(p:Post)-[:REPLY]->(c1), "
    "(m:Moderator)-[:MODERATES]->(p) "
    "RETURN m, p, c1, c2"
)


def skewed_social(moderators=2, posts=30, comments_per_post=8, seed=17):
    graph = PropertyGraph()
    rng = random.Random(seed)
    mods = [graph.add_vertex(labels=["Moderator"]) for _ in range(moderators)]
    comments = []
    for _ in range(posts):
        post = graph.add_vertex(labels=["Post"])
        graph.add_edge(rng.choice(mods), post, "MODERATES")
        previous = post
        previous_label = "Post"
        for _ in range(comments_per_post):
            comment = graph.add_vertex(labels=["Comment"])
            graph.add_edge(previous, comment, "REPLY")
            comments.append(comment)
            previous = comment
    return graph, comments


def build(graph, cost_based: bool):
    """The query as a view on its own engine, so the orders share nothing."""
    stats = GraphStatistics.from_graph(graph) if cost_based else None
    return IncrementalEngine(graph).register(compile_query(QUERY, stats))


def drive_updates(graph, comments, count=30, seed=3):
    rng = random.Random(seed)
    for _ in range(count):
        parent = rng.choice(comments)
        child = graph.add_vertex(labels=["Comment"])
        edge = graph.add_edge(parent, child, "REPLY")
        graph.remove_edge(edge)
        graph.remove_vertex(child)


# -- pytest-benchmark kernels ----------------------------------------------------


def test_register_syntactic(benchmark):
    graph, _ = skewed_social()
    benchmark(lambda: build(graph, cost_based=False))


def test_register_cost_based(benchmark):
    graph, _ = skewed_social()
    benchmark(lambda: build(graph, cost_based=True))


def test_update_syntactic(benchmark):
    graph, comments = skewed_social()
    build(graph, cost_based=False)
    benchmark(lambda: drive_updates(graph, comments, count=5))


def test_update_cost_based(benchmark):
    graph, comments = skewed_social()
    build(graph, cost_based=True)
    benchmark(lambda: drive_updates(graph, comments, count=5))


def test_both_orders_agree():
    graph, comments = skewed_social(moderators=2, posts=8, comments_per_post=4)
    plain = build(graph, cost_based=False)
    costed = build(graph, cost_based=True)
    parent = comments[0]
    child = graph.add_vertex(labels=["Comment"])
    graph.add_edge(parent, child, "REPLY")
    assert plain.multiset() == costed.multiset()


# -- standalone report --------------------------------------------------------------


def main() -> None:
    rows = []
    for cost_based, label in ((False, "syntactic (written order)"), (True, "cost-based")):
        graph, comments = skewed_social(posts=40, comments_per_post=10)
        with Timer() as t_register:
            view = build(graph, cost_based)
        drive_updates(graph, comments, count=20)  # warm-up
        with Timer() as t_update:
            drive_updates(graph, comments, count=100)
        rows.append(
            [
                label,
                t_register.seconds,
                view.memory_cells(),
                t_update.seconds / 100,
            ]
        )
    plain, costed = rows
    print(
        format_table(
            ["join order", "registration", "memory cells", "update latency"],
            rows,
            title="E13 — ablation: cost-based join ordering (pessimally written query)",
        )
    )
    print(f"registration speedup: {speedup(plain[1], costed[1])}")
    print(f"update speedup:       {speedup(plain[3], costed[3])}")
    print(f"memory ratio:         {plain[2] / max(costed[2], 1):.1f}x")


if __name__ == "__main__":
    main()
