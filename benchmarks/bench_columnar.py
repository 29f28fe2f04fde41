"""Columnar delta batches vs the row-at-a-time hot path.

An SNB-flavoured churn workload replayed in ``engine.batch()`` windows
over a Person/Post graph, against a view mix that concentrates on the
three columnar levers:

* a **parameter grid** — one two-parameter view
  (``country = $c AND score = $s``) per (country, score) binding.  The
  row baseline's binding tier discriminates on the *first* conjunct
  only, so every Person row fans out to all same-country partitions and
  re-runs the full σ in each; the columnar engine probes one composite
  value bucket,
* **constant selections** over Post languages — pushed into value-level
  router buckets, so property churn on non-matching values never reaches
  (or translates through) the filtered input nodes,
* a **join view** fed whole :class:`~repro.rete.deltas.ColumnDelta`
  batches per window: key extraction is one column transpose and memory
  maintenance one column fold (``insert_columns``) instead of a per-row
  dict dance.

Every run is correctness-gated: the columnar engine and the
``columnar_deltas=False`` baseline replay the identical stream over
identical graphs, and at the end all view multisets must agree pairwise
*and* with one-shot re-evaluation.

The standalone main asserts a ≥2x throughput win in the full
configuration and writes a ``BENCH_columnar.json`` trajectory point;
``--smoke`` runs a tiny differential-only configuration (no timing
claims) for CI.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro import PropertyGraph, QueryEngine
from repro.bench import Timer, format_table, speedup

SEED = 31
SMOKE_SIZES = {
    "countries": 3,
    "scores": 3,
    "people": 24,
    "posts": 16,
    "windows": 8,
    "window_ops": 6,
}
FULL_SIZES = {
    "countries": 4,
    "scores": 16,
    "people": 320,
    "posts": 160,
    "windows": 80,
    "window_ops": 30,
}

COUNTRIES = ("cn", "in", "de", "us", "br", "jp")
LANGS = ("en", "de", "hu")

PARAM_QUERY = (
    "MATCH (p:Person) WHERE p.country = $country AND p.score = $score RETURN p"
)
CONST_QUERIES = tuple(
    f"MATCH (p:Post) WHERE p.lang = '{lang}' RETURN p" for lang in LANGS
)
JOIN_QUERY = "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a, b"
LIKES_QUERY = "MATCH (a:Person)-[:LIKES]->(p:Post) WHERE p.lang = 'en' RETURN a, p"


def build_graph(sizes: dict, seed: int = SEED):
    """Persons (country, score) knowing each other and liking Posts (lang)."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    people = [
        graph.add_vertex(
            labels=["Person"],
            properties={
                "country": COUNTRIES[i % sizes["countries"]],
                "score": rng.randrange(sizes["scores"]),
            },
        )
        for i in range(sizes["people"])
    ]
    posts = [
        graph.add_vertex(labels=["Post"], properties={"lang": rng.choice(LANGS)})
        for _ in range(sizes["posts"])
    ]
    for person in people:
        graph.add_edge(person, rng.choice(people), "KNOWS")
        graph.add_edge(person, rng.choice(posts), "LIKES")
    return graph, people, posts


def register_views(engine: QueryEngine, sizes: dict) -> dict[str, object]:
    """The full grid of parameter bindings plus the constant/join views."""
    views: dict[str, object] = {}
    for c in range(sizes["countries"]):
        for s in range(sizes["scores"]):
            views[f"param:{c}:{s}"] = engine.register(
                PARAM_QUERY,
                parameters={"country": COUNTRIES[c], "score": s},
            )
    for i, query in enumerate(CONST_QUERIES):
        views[f"const:{i}"] = engine.register(query)
    views["join"] = engine.register(JOIN_QUERY)
    views["likes"] = engine.register(LIKES_QUERY)
    return views


def churn_ops(sizes: dict, people, posts, seed: int = SEED + 1):
    """Deterministic update windows, replayable over identical graphs.

    Ops reference entities by precomputed id (vertex and edge id counters
    advance identically on identical graphs), so two engines fed the same
    windows see identical event streams.  The mix is SNB-style interaction
    churn: score drift and country moves on Persons, language fixes on
    Posts, and KNOWS edge churn.
    """
    rng = random.Random(seed)
    edges_created = 2 * len(people)  # the build phase's KNOWS + LIKES edges
    windows = []
    for _ in range(sizes["windows"]):
        ops = []
        for _ in range(sizes["window_ops"]):
            roll = rng.random()
            if roll < 0.55:
                person, value = rng.choice(people), rng.randrange(sizes["scores"])
                ops.append(
                    lambda g, v=person, x=value: g.set_vertex_property(
                        v, "score", x
                    )
                )
            elif roll < 0.65:
                person = rng.choice(people)
                value = COUNTRIES[rng.randrange(sizes["countries"])]
                ops.append(
                    lambda g, v=person, x=value: g.set_vertex_property(
                        v, "country", x
                    )
                )
            elif roll < 0.8:
                post, value = rng.choice(posts), rng.choice(LANGS)
                ops.append(
                    lambda g, v=post, x=value: g.set_vertex_property(v, "lang", x)
                )
            elif roll < 0.92:
                src, tgt = rng.choice(people), rng.choice(people)
                ops.append(lambda g, s=src, t=tgt: g.add_edge(s, t, "KNOWS"))
                edges_created += 1
            else:
                target = max(1, edges_created - rng.randrange(6))
                ops.append(
                    lambda g, e=target: g.remove_edge(e) if g.has_edge(e) else None
                )
        windows.append(ops)
    return windows


def run_stream(sizes: dict, columnar: bool):
    """Replay the churn windows under one delta representation.

    Returns (seconds, views, engine); timing covers only the update loop.
    """
    graph, people, posts = build_graph(sizes)
    engine = QueryEngine(graph, columnar_deltas=columnar)
    views = register_views(engine, sizes)
    windows = churn_ops(sizes, people, posts)
    with Timer() as timer:
        for ops in windows:
            with engine.batch():
                for op in ops:
                    op(graph)
    return timer.seconds, views, engine


def verify(sizes: dict, columnar_views, row_views, engine) -> None:
    """The differential oracle gate: columnar == row == recomputation."""
    for c in range(sizes["countries"]):
        for s in range(sizes["scores"]):
            name = f"param:{c}:{s}"
            parameters = {"country": COUNTRIES[c], "score": s}
            columnar = columnar_views[name].multiset()
            assert columnar == row_views[name].multiset(), name
            assert (
                columnar
                == engine.evaluate(
                    PARAM_QUERY, parameters, use_views=False
                ).multiset()
            ), name
    for name, query in [
        (f"const:{i}", query) for i, query in enumerate(CONST_QUERIES)
    ] + [("join", JOIN_QUERY), ("likes", LIKES_QUERY)]:
        columnar = columnar_views[name].multiset()
        assert columnar == row_views[name].multiset(), name
        assert (
            columnar == engine.evaluate(query, use_views=False).multiset()
        ), name


def run_pair(sizes: dict, rounds: int = 1):
    """Best-of-*rounds* for each mode (both modes measured identically)."""
    columnar_seconds, columnar_views, columnar_engine = run_stream(sizes, True)
    row_seconds, row_views, _ = run_stream(sizes, False)
    verify(sizes, columnar_views, row_views, columnar_engine)
    for _ in range(rounds - 1):
        columnar_seconds = min(columnar_seconds, run_stream(sizes, True)[0])
        row_seconds = min(row_seconds, run_stream(sizes, False)[0])
    return columnar_seconds, row_seconds


# -- pytest-benchmark kernels --------------------------------------------------


def test_columnar_stream(benchmark):
    benchmark.pedantic(
        lambda: run_stream(SMOKE_SIZES, True), rounds=3, iterations=1
    )


def test_row_stream(benchmark):
    benchmark.pedantic(
        lambda: run_stream(SMOKE_SIZES, False), rounds=3, iterations=1
    )


def test_columnar_matches_row_and_oracle():
    run_pair(SMOKE_SIZES)


# -- standalone report ---------------------------------------------------------


def main(smoke: bool = False) -> None:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    operations = sizes["windows"] * sizes["window_ops"]
    bindings = sizes["countries"] * sizes["scores"]
    print(
        f"columnar churn: {operations} events in {sizes['windows']} batch "
        f"windows, {bindings} parameter bindings + {len(CONST_QUERIES)} "
        f"constant selections + 2 join views"
    )
    columnar_seconds, row_seconds = run_pair(sizes, rounds=1 if smoke else 3)
    print("differential oracle: columnar == row == recomputation ✓")
    rows = [
        [
            "row-at-a-time (columnar_deltas=False)",
            row_seconds,
            f"{operations / row_seconds:.0f}",
            "1.0x",
        ],
        [
            "columnar (ColumnDelta batches)",
            columnar_seconds,
            f"{operations / columnar_seconds:.0f}",
            speedup(row_seconds, columnar_seconds),
        ],
    ]
    print(
        format_table(
            ["hot path", "total", "events/sec", "vs row"],
            rows,
            title="columnar delta batches on SNB-style windowed churn",
        )
    )
    ratio = row_seconds / columnar_seconds
    if smoke:
        print("\nsmoke mode: both delta representations exercised, timings "
              "not asserted")
        return
    point = {
        "experiment": "columnar",
        "events": operations,
        "windows": sizes["windows"],
        "bindings": bindings,
        "row_seconds": row_seconds,
        "columnar_seconds": columnar_seconds,
        "row_events_per_sec": operations / row_seconds,
        "columnar_events_per_sec": operations / columnar_seconds,
        "speedup": ratio,
    }
    Path("BENCH_columnar.json").write_text(json.dumps(point, indent=2) + "\n")
    print(f"\nwrote BENCH_columnar.json (speedup {ratio:.1f}x)")
    assert ratio >= 2.0, (
        f"columnar hot path should be ≥2x the row path on windowed churn, "
        f"got {ratio:.1f}x"
    )
    print(f"columnar ≥2x row path at {bindings} bindings ✓")


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
