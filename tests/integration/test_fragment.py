"""E3/E4 — the paper's fragment claims as an executable matrix.

The paper (§4) claims: the openCypher fragment with unordered bags and
atomic paths is incrementally maintainable; path *unwinding* stays
supported; ordering (top-k, ORDER BY) is not.  These tests pin each cell.
"""

import pytest

from repro import QueryEngine, UnsupportedForIncrementalError, compile_query

#: (query, in_fragment) — the fragment matrix reported by
#: benchmarks/paper/tab_fragment_matrix.py
FRAGMENT_MATRIX = [
    # IVM-supported: bag-based constructs
    ("MATCH (n:Post) RETURN n", True),
    ("MATCH (n:Post) WHERE n.lang = 'en' RETURN n", True),
    ("MATCH (a:Post)-[:REPLY]->(b:Comm) RETURN a, b", True),
    ("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN p, t", True),
    ("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n", True),
    ("MATCH (n:Post) RETURN DISTINCT n.lang AS l", True),
    ("MATCH (n:Post) RETURN n.lang AS l, count(*) AS c", True),
    ("MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c) RETURN p, c", True),
    ("MATCH (p:Post) RETURN p AS n UNION MATCH (c:Comm) RETURN c AS n", True),
    ("MATCH (p:Post) WITH p.lang AS l, count(*) AS n WHERE n > 1 RETURN l", True),
    # excluded: ordering (ORD) constructs
    ("MATCH (n:Post) RETURN n ORDER BY n.lang", False),
    ("MATCH (n:Post) RETURN n SKIP 2", False),
    ("MATCH (n:Post) RETURN n LIMIT 3", False),
    (
        "MATCH (p:Post)-[:REPLY*]->(c) RETURN p, count(c) AS n ORDER BY n DESC LIMIT 3",
        False,  # the paper's explicit top-k example
    ),
    ("MATCH (n:Post) WITH n ORDER BY n.lang LIMIT 1 RETURN n", False),
]


@pytest.mark.parametrize("query,in_fragment", FRAGMENT_MATRIX)
def test_fragment_membership(query, in_fragment):
    assert compile_query(query).is_incremental == in_fragment


@pytest.mark.parametrize(
    "query,in_fragment", [(q, f) for q, f in FRAGMENT_MATRIX if not f]
)
def test_excluded_queries_raise_on_registration(paper_graph, query, in_fragment):
    engine = QueryEngine(paper_graph)
    with pytest.raises(UnsupportedForIncrementalError):
        engine.register(query)


@pytest.mark.parametrize(
    "query,in_fragment", [(q, f) for q, f in FRAGMENT_MATRIX if f]
)
def test_included_queries_register_and_match_oracle(paper_graph, query, in_fragment):
    engine = QueryEngine(paper_graph)
    view = engine.register(query)
    assert view.multiset() == engine.evaluate(query, use_views=False).multiset()


@pytest.mark.parametrize("query,in_fragment", FRAGMENT_MATRIX)
def test_every_query_evaluates_one_shot(paper_graph, query, in_fragment):
    """Queries outside the fragment remain supported non-incrementally."""
    QueryEngine(paper_graph).evaluate(query, use_views=False)


def test_path_unwinding_loses_order_into_bag(paper_graph):
    """§4: paths 'lose their ordering when unnested' — UNWIND produces a
    bag of vertices whose multiplicities reflect the path contents."""
    engine = QueryEngine(paper_graph)
    view = engine.register(
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n"
    )
    assert view.multiset() == {(1,): 2, (2,): 2, (3,): 1}
