"""E3/E4 — the maintainable-fragment matrix (paper §4 claims).

Regenerates, as a table, the paper's central claim: which openCypher
constructs are incrementally maintainable (bags + atomic paths + path
unwinding) and which are excluded (ordering / top-k).  For every supported
construct the incremental view is checked against the recompute oracle and
its maintenance cost is measured.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run from a checkout without installing: the package lives in ../../src
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import QueryEngine, UnsupportedForIncrementalError
from repro.bench import Timer, format_table
from repro.compiler import compile_query
from repro.workloads import social

#: construct → (query, expected_in_fragment)
MATRIX: dict[str, tuple[str, bool]] = {
    "node scan": ("MATCH (n:Post) RETURN n", True),
    "selection": ("MATCH (n:Post) WHERE n.lang = 'en' RETURN n", True),
    "join (single hop)": ("MATCH (a:Post)-[:REPLY]->(b:Comm) RETURN a, b", True),
    "transitive closure + path": (
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN p, t",
        True,
    ),
    "path unwinding": (
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
        True,
    ),
    "DISTINCT": ("MATCH (n:Post) RETURN DISTINCT n.lang AS l", True),
    "aggregation": ("MATCH (n:Post) RETURN n.lang AS l, count(*) AS c", True),
    "OPTIONAL MATCH": (
        "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c) RETURN p, c",
        True,
    ),
    "UNION": (
        "MATCH (p:Post) RETURN p AS n UNION MATCH (c:Comm) RETURN c AS n",
        True,
    ),
    "WITH + HAVING": (
        "MATCH (p:Post)-[:REPLY]->(c) WITH p, count(c) AS n WHERE n > 1 RETURN p, n",
        True,
    ),
    "ORDER BY": ("MATCH (n:Post) RETURN n ORDER BY n.lang", False),
    "SKIP": ("MATCH (n:Post) RETURN n SKIP 2", False),
    "LIMIT": ("MATCH (n:Post) RETURN n LIMIT 3", False),
    "top-k (paper's example)": (
        "MATCH (p:Post)-[:REPLY*]->(c) RETURN p, count(c) AS n ORDER BY n DESC LIMIT 3",
        False,
    ),
}


def workload():
    return social.generate_social(
        persons=8, posts_per_person=2, comments_per_post=4, seed=7
    )


def main() -> None:
    net = workload()
    engine = QueryEngine(net.graph)
    rows = []
    for name, (query, expected) in MATRIX.items():
        compiled = compile_query(query)
        assert compiled.is_incremental == expected, name
        if compiled.is_incremental:
            view = engine.register(query)
            with Timer() as update_t:
                social.add_comment(net, net.posts[0], "en")
            consistent = view.multiset() == engine.evaluate(query, use_views=False).multiset()
            rows.append(
                [name, "yes", f"{update_t.seconds * 1e3:.2f}ms (all views)",
                 "ok" if consistent else "MISMATCH"]
            )
        else:
            try:
                engine.register(query)
                status = "BUG: accepted"
            except UnsupportedForIncrementalError:
                status = "rejected (ORD)"
            engine.evaluate(query, use_views=False)
            rows.append([name, "no", "-", status + ", one-shot ok"])
    print(
        format_table(
            ["construct", "IVM", "update latency", "check"],
            rows,
            title="E3/E4 — incrementally maintainable fragment matrix",
        )
    )
    assert all(row[3] in ("ok", "rejected (ORD), one-shot ok") for row in rows)


if __name__ == "__main__":
    main()
