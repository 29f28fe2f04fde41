"""E13 — interest-routed event dispatch vs. the broadcast baseline.

A many-views deployment over a 50-label social-style graph: per label,
four distinct view shapes (two vertex signatures, two edge signatures —
different users watching the same community through different queries),
200 registered input signatures in all.  The churn stream mixes ranked-key
updates (affect one view), metadata-key updates and auxiliary label flips
(affect none — no signature watches them), and edge churn (affect one edge
view).  Broadcast dispatch hands every event to every input node, so
per-event cost grows with the number of *registered* signatures; the
:class:`~repro.rete.router.EventRouter` consults its inverted interest
indexes and touches only the nodes the event can possibly concern, keeping
the cost O(affected) — the paper's IVM property restored at the dispatch
layer.

Every run is correctness-gated: the routed engine and the broadcast
engine replay the identical stream over identical graphs, and at the end
all view multisets must agree pairwise *and* with one-shot re-evaluation.

The standalone main asserts a ≥5x throughput win at 50+ signatures and
writes a ``BENCH_dispatch.json`` trajectory point; ``--smoke`` runs a
tiny differential-only configuration (no timing claims) for CI.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro import PropertyGraph, QueryEngine
from repro.bench import Timer, format_table, speedup

SEED = 77
SMOKE_SIZES = {"labels": 6, "vertices_per_label": 4, "operations": 120}
FULL_SIZES = {"labels": 50, "vertices_per_label": 10, "operations": 4000}


def build_graph(labels: int, vertices_per_label: int, seed: int = SEED):
    """A social-style graph: one community per label, typed edges inside."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    by_label: list[list[int]] = []
    for i in range(labels):
        members = [
            graph.add_vertex(
                labels=[f"L{i}"], properties={"score": rng.randint(0, 9)}
            )
            for _ in range(vertices_per_label)
        ]
        by_label.append(members)
    for i, members in enumerate(by_label):
        for vertex in members:
            graph.add_edge(
                vertex, rng.choice(members), f"T{i}", properties={"w": 1}
            )
    return graph, by_label


VIEW_SHAPES = (
    ("score", "MATCH (n:L{i}) RETURN n, n.score"),
    ("name", "MATCH (n:L{i}) RETURN n, n.name"),
    ("edges", "MATCH (a)-[r:T{i}]->(b) RETURN a, b"),
    ("weights", "MATCH (a)-[r:T{i}]->(b) RETURN a, b, r.w"),
)


def register_views(engine: QueryEngine, labels: int) -> dict[str, object]:
    """Four distinct input signatures per label: 4×labels in total."""
    views = {}
    for i in range(labels):
        for shape, template in VIEW_SHAPES:
            views[f"{shape}{i}"] = engine.register(template.format(i=i))
    return views


def churn_ops(labels: int, by_label, operations: int, seed: int = SEED + 1):
    """A deterministic op list, each op touching exactly one community.

    Ops reference entities by precomputed id (vertex and edge id counters
    advance identically on identical graphs), so replaying the list over
    two identical graphs produces identical event streams.
    """
    rng = random.Random(seed)
    ops = []
    edges_created = sum(len(members) for members in by_label)  # build edges
    for _ in range(operations):
        i = rng.randrange(labels)
        members = by_label[i]
        roll = rng.random()
        if roll < 0.2:
            # ranked-key update: exactly one vertex view cares
            vertex, value = rng.choice(members), rng.randint(0, 9)
            ops.append(
                lambda g, v=vertex, x=value: g.set_vertex_property(v, "score", x)
            )
        elif roll < 0.5:
            # metadata-key update: no registered signature watches it
            vertex, value = rng.choice(members), rng.randint(0, 999)
            ops.append(
                lambda g, v=vertex, x=value: g.set_vertex_property(v, "viewed", x)
            )
        elif roll < 0.65:
            src, tgt = rng.choice(members), rng.choice(members)
            ops.append(lambda g, s=src, t=tgt, et=f"T{i}": g.add_edge(s, t, et))
            edges_created += 1
        elif roll < 0.75:
            target = max(1, edges_created - rng.randrange(4))
            ops.append(
                lambda g, e=target: g.remove_edge(e) if g.has_edge(e) else None
            )
        else:
            # auxiliary label flip: outside every view's label constraints
            vertex = rng.choice(members)
            ops.append(
                lambda g, v=vertex, lbl=f"X{i}": (
                    g.add_label(v, lbl)
                    if lbl not in g.labels_of(v)
                    else g.remove_label(v, lbl)
                )
            )
    return ops


def run_stream(sizes: dict, route_events: bool, columnar: bool = True):
    """Replay the churn stream under one dispatch mode.

    Returns (seconds, views, engine); timing covers only the event loop.
    """
    graph, by_label = build_graph(sizes["labels"], sizes["vertices_per_label"])
    engine = QueryEngine(
        graph, route_events=route_events, columnar_deltas=columnar
    )
    views = register_views(engine, sizes["labels"])
    ops = churn_ops(sizes["labels"], by_label, sizes["operations"])
    with Timer() as timer:
        for op in ops:
            op(graph)
    return timer.seconds, views, engine


def verify(sizes: dict, routed_views, broadcast_views, engine) -> None:
    """The differential oracle gate: routed == broadcast == recomputation."""
    for i in range(sizes["labels"]):
        for shape, template in VIEW_SHAPES:
            name, query = f"{shape}{i}", template.format(i=i)
            routed = routed_views[name].multiset()
            assert routed == broadcast_views[name].multiset(), name
            assert routed == engine.evaluate(query, use_views=False).multiset(), name


def run_pair(sizes: dict, rounds: int = 1, columnar: bool = True):
    """Best-of-*rounds* for each mode (both modes measured identically)."""
    routed_seconds, routed_views, routed_engine = run_stream(
        sizes, True, columnar
    )
    broadcast_seconds, broadcast_views, _ = run_stream(sizes, False, columnar)
    verify(sizes, routed_views, broadcast_views, routed_engine)
    for _ in range(rounds - 1):
        routed_seconds = min(
            routed_seconds, run_stream(sizes, True, columnar)[0]
        )
        broadcast_seconds = min(
            broadcast_seconds, run_stream(sizes, False, columnar)[0]
        )
    return routed_seconds, broadcast_seconds


# -- pytest-benchmark kernels --------------------------------------------------


def test_dispatch_routed(benchmark):
    benchmark.pedantic(
        lambda: run_stream(SMOKE_SIZES, True), rounds=3, iterations=1
    )


def test_dispatch_broadcast(benchmark):
    benchmark.pedantic(
        lambda: run_stream(SMOKE_SIZES, False), rounds=3, iterations=1
    )


def test_routed_matches_broadcast_and_oracle():
    run_pair(SMOKE_SIZES)


# -- standalone report ---------------------------------------------------------


def main(smoke: bool = False, columnar: bool = True) -> None:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    signatures = len(VIEW_SHAPES) * sizes["labels"]
    operations = sizes["operations"]
    print(
        f"dispatch churn: {operations} events, {signatures} registered "
        f"input signatures ({sizes['labels']} labels × {len(VIEW_SHAPES)} "
        f"view shapes), columnar_deltas={columnar}"
    )
    routed_seconds, broadcast_seconds = run_pair(
        sizes, rounds=1 if smoke else 3, columnar=columnar
    )
    print("differential oracle: routed == broadcast == recomputation ✓")
    rows = [
        [
            "broadcast (route_events=False)",
            broadcast_seconds,
            f"{operations / broadcast_seconds:.0f}",
            "1.0x",
        ],
        [
            "routed (EventRouter)",
            routed_seconds,
            f"{operations / routed_seconds:.0f}",
            speedup(broadcast_seconds, routed_seconds),
        ],
    ]
    print(
        format_table(
            ["dispatch", "total", "events/sec", "vs broadcast"],
            rows,
            title="E13 — interest-routed dispatch on a many-views deployment",
        )
    )
    ratio = broadcast_seconds / routed_seconds
    if smoke:
        print("\nsmoke mode: dispatch paths exercised, timings not asserted")
        return
    point = {
        "experiment": "dispatch",
        "signatures": signatures,
        "events": operations,
        "broadcast_seconds": broadcast_seconds,
        "routed_seconds": routed_seconds,
        "broadcast_events_per_sec": operations / broadcast_seconds,
        "routed_events_per_sec": operations / routed_seconds,
        "speedup": ratio,
    }
    Path("BENCH_dispatch.json").write_text(json.dumps(point, indent=2) + "\n")
    print(f"\nwrote BENCH_dispatch.json (speedup {ratio:.1f}x)")
    assert ratio >= 5.0, (
        f"routed dispatch should be ≥5x broadcast at {signatures} "
        f"signatures, got {ratio:.1f}x"
    )
    print(f"routed ≥5x broadcast at {signatures} signatures ✓")


if __name__ == "__main__":
    _argv = sys.argv[1:]
    main(
        smoke="--smoke" in _argv,
        columnar="--no-columnar" not in _argv,
    )
