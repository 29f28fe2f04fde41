"""E1 — the paper's running example (§2) under maintenance.

Regenerates the paper's result table for the query

    MATCH t = (p:Post)-[:REPLY*]->(c:Comm)
    WHERE p.lang = c.lang
    RETURN p, t

and measures the cost of keeping it fresh: incremental propagation of one
update versus full recomputation (what a system without IVM must do),
including the atomic-path delete/re-derive case the paper motivates.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run from a checkout without installing: the package lives in ../../src
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import PropertyGraph, QueryEngine
from repro.bench import Timer, format_table, speedup
from repro.workloads import social

QUERY = social.RUNNING_EXAMPLE_QUERY


def paper_graph() -> PropertyGraph:
    graph = PropertyGraph()
    post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
    c2 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    c3 = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
    graph.add_edge(post, c2, "REPLY")
    graph.add_edge(c2, c3, "REPLY")
    return graph


def bigger_example(threads: int = 50, depth: int = 6):
    """Many running-example threads, so the update cost difference shows."""
    net = social.generate_social(
        persons=threads // 2 or 1,
        posts_per_person=2,
        comments_per_post=depth,
        seed=42,
    )
    return net


def main() -> None:
    graph = paper_graph()
    engine = QueryEngine(graph)
    view = engine.register(QUERY)
    print("Paper §2 result table (reproduced):")
    print(view.result_table().to_text())
    print()

    net = bigger_example()
    engine = QueryEngine(net.graph)
    view = engine.register(QUERY)
    rows = []

    with Timer() as t_inc:
        social.add_comment(net, net.posts[0], "en")
    with Timer() as t_re:
        engine.evaluate(QUERY, use_views=False)
    rows.append(["insert reply", t_inc.seconds, t_re.seconds, speedup(t_re.seconds, t_inc.seconds)])

    edge = next(iter(net.graph.edges("REPLY")))
    s, t = net.graph.endpoints(edge)
    with Timer() as t_inc:
        net.graph.remove_edge(edge)
        net.graph.add_edge(s, t, "REPLY")
    with Timer() as t_re:
        engine.evaluate(QUERY, use_views=False)
    rows.append(["delete+re-add edge (atomic paths)", t_inc.seconds, t_re.seconds, speedup(t_re.seconds, t_inc.seconds)])

    message = net.posts[0]
    with Timer() as t_inc:
        net.graph.set_vertex_property(message, "lang", "de")
    with Timer() as t_re:
        engine.evaluate(QUERY, use_views=False)
    rows.append(["change lang property", t_inc.seconds, t_re.seconds, speedup(t_re.seconds, t_inc.seconds)])

    print(
        format_table(
            ["update", "incremental", "recompute", "speedup"],
            rows,
            title=f"E1 — running example maintenance ({net.graph.stats()})",
        )
    )
    assert view.multiset() == engine.evaluate(QUERY, use_views=False).multiset()


if __name__ == "__main__":
    main()
