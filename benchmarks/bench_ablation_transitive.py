"""E10 — ablation D2: transitive closure maintenance strategy.

The default node materialises every *trail* from a live source, a vertex
with a left row (needed because the paper's fragment returns atomic paths); when a query only asks for reachability
(no path variable, DISTINCT results), a pair-based mode in the spirit of
Bergmann et al. [3] suffices.  This experiment quantifies the trade-off:
trail materialisation pays memory and per-edge work proportional to the
number of affected trails; reachability mode stores only pairs but must
re-derive reachable sets on edge deletion.
"""

from __future__ import annotations

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.bench import Timer, format_table
from repro.workloads import social

#: reachability-shaped query: no path variable, deduplicated
QUERY = "MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN DISTINCT p, c"


def workload(persons=10, depth=6):
    return social.generate_social(
        persons=persons, posts_per_person=2, comments_per_post=depth, seed=29
    )


def engine_for(graph, mode: str) -> QueryEngine:
    return QueryEngine(graph, transitive_mode=mode)


# -- pytest-benchmark kernels --------------------------------------------------------


@pytest.mark.parametrize("mode", ["trails", "reachability"])
def test_register(benchmark, mode, bench_sizes):
    net = workload(bench_sizes["persons"])

    def register():
        engine = engine_for(net.graph, mode)
        view = engine.register(QUERY)
        view.detach()

    benchmark(register)


@pytest.mark.parametrize("mode", ["trails", "reachability"])
def test_insert_updates(benchmark, mode, bench_sizes):
    net = workload(bench_sizes["persons"])
    engine = engine_for(net.graph, mode)
    engine.register(QUERY)
    counter = iter(range(10**9))

    def add_reply():
        social.add_comment(net, net.posts[next(counter) % len(net.posts)], "en")

    benchmark(add_reply)


@pytest.mark.parametrize("mode", ["trails", "reachability"])
def test_delete_updates(benchmark, mode, bench_sizes):
    net = workload(bench_sizes["persons"])
    engine = engine_for(net.graph, mode)
    engine.register(QUERY)
    graph = net.graph

    def delete_and_restore():
        edge = next(iter(graph.edges("REPLY")))
        source, target = graph.endpoints(edge)
        graph.remove_edge(edge)
        graph.add_edge(source, target, "REPLY")

    benchmark(delete_and_restore)


def test_modes_agree():
    net = workload(persons=6, depth=4)
    trails_engine = engine_for(net.graph, "trails")
    reach_engine = engine_for(net.graph, "reachability")
    trails_view = trails_engine.register(QUERY)
    reach_view = reach_engine.register(QUERY)
    rng = random.Random(11)
    for _ in range(40):
        if rng.random() < 0.7 or net.graph.edge_count == 0:
            social.add_comment(net, rng.choice(net.posts + net.comments), "en")
        else:
            edge = rng.choice(list(net.graph.edges("REPLY")))
            net.graph.remove_edge(edge)
    oracle = trails_engine.evaluate(QUERY, use_views=False).multiset()
    assert trails_view.multiset() == oracle
    assert reach_view.multiset() == oracle


# -- standalone report ------------------------------------------------------------------


def main() -> None:
    rows = []
    for mode in ("trails", "reachability"):
        net = workload(persons=20, depth=8)
        graph = net.graph
        engine = engine_for(graph, mode)
        with Timer() as t_reg:
            view = engine.register(QUERY)
        memory = view.network.memory_cells()
        with Timer() as t_ins:
            for i in range(50):
                social.add_comment(net, net.posts[i % len(net.posts)], "en")
        with Timer() as t_del:
            for _ in range(50):
                edge = next(iter(graph.edges("REPLY")))
                s, t = graph.endpoints(edge)
                graph.remove_edge(edge)
                graph.add_edge(s, t, "REPLY")
        assert view.multiset() == engine.evaluate(QUERY, use_views=False).multiset()
        rows.append(
            [mode, t_reg.seconds, memory, t_ins.seconds / 50, t_del.seconds / 50]
        )
    print(
        format_table(
            ["mode", "registration", "memory cells", "insert/update", "delete/update"],
            rows,
            title="E10 — ablation D2: trail materialisation vs reachability pairs",
        )
    )


if __name__ == "__main__":
    main()


# -- PropertyGraph import guard (used by doc example) ----------------------------------
_ = PropertyGraph
