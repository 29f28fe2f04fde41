"""Maintenance-cost attribution: per-view row-work shares.

``view_costs()`` reads the always-on node traffic counters (it needs no
``collect_metrics``), splits shared nodes' work evenly across their
reader views, and books work done by nodes no view reads directly (the
chain below a reused subplan whose building view has detached) as
``unattributed``.  The invariant pinned throughout: the
per-view shares plus the unattributed bucket sum to the engine-wide
total exactly, up to float rounding.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.rete.engine import IncrementalEngine

from ..rete.test_sharing import _random_op


def churn(graph, operations=30, seed=7):
    rng = random.Random(seed)
    for _ in range(operations):
        vertices = list(graph.vertices())
        edges = list(graph.edges())
        _random_op(rng, vertices, edges)(graph)


def assert_sums_to_total(costs):
    attributed = sum(entry["cost"] for entry in costs["views"])
    assert attributed + costs["unattributed"] == pytest.approx(
        costs["total"], abs=1e-6
    )


class TestAttribution:
    def test_sums_to_total_after_churn(self):
        graph = PropertyGraph()
        engine = IncrementalEngine(graph)
        engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        engine.register(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) "
            "WHERE p.lang = c.lang RETURN p, c"
        )
        churn(graph)
        costs = engine.view_costs()
        assert costs["unit"] == "row-work (applied_rows + emitted_rows)"
        assert costs["total"] > 0
        assert_sums_to_total(costs)
        assert [entry["view"] for entry in costs["views"]] == [0, 1]
        for entry in costs["views"]:
            assert entry["cost"] >= entry["shared_cost"] >= 0

    def test_identical_views_split_shared_work(self):
        graph = PropertyGraph()
        engine = IncrementalEngine(graph)
        query = "MATCH (p:Post) RETURN p.lang AS lang"
        engine.register(query)
        first_alone = None
        churn(graph, operations=20)
        first_alone = engine.view_costs()["views"][0]["cost"]
        engine.register(query)
        churn(graph, operations=20, seed=9)
        costs = engine.view_costs()
        first, second = costs["views"]
        # the late twin cut over at the shared plan root, so it is charged
        # a share of that node's work — but never more than the builder,
        # which also reads the upstream chain it materialised
        assert second["shared_cost"] > 0
        assert first["shared_cost"] >= second["shared_cost"]
        assert first["cost"] > first_alone  # new traffic keeps accruing
        assert_sums_to_total(costs)

    def test_no_views_means_everything_unattributed(self):
        graph = PropertyGraph()
        engine = IncrementalEngine(graph)
        view = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        churn(graph, operations=15)
        view.detach()
        costs = engine.view_costs()
        assert costs["views"] == []
        assert costs["unattributed"] == pytest.approx(costs["total"])

    def test_detaching_the_builder_of_a_reused_subplan_keeps_the_sum(self):
        graph = PropertyGraph()
        engine = QueryEngine(graph)
        query = "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c"
        builder = engine.register(query)
        # a root hit: the keeper reads the shared root, not the inputs
        keeper = engine.register(query)
        churn(graph, operations=15)
        builder.detach()
        churn(graph, operations=15, seed=8)
        costs = engine.view_costs()
        assert len(costs["views"]) == 1
        assert_sums_to_total(costs)
        assert costs["unattributed"] == 0  # the keeper reads the inputs too
        direct = engine.evaluate(query, use_views=False)
        assert keeper.multiset() == direct.multiset()

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    def test_a_detached_views_private_chain_leaves_the_books(self, batched):
        """A detached view's nodes are dropped at once: nothing it alone
        read keeps accruing, so the survivor is charged the whole total."""
        graph = PropertyGraph()
        engine = QueryEngine(graph, batch_transactions=batched)
        query = "MATCH (c:Comm) RETURN c.lang AS lang"
        leaver = engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        keeper = engine.register(query)
        churn(graph, operations=15)
        leaver.detach()
        rng = random.Random(12)
        for _ in range(10):
            with graph.transaction():
                for _ in range(rng.randint(1, 3)):
                    vertices = list(graph.vertices())
                    edges = list(graph.edges())
                    _random_op(rng, vertices, edges)(graph)
        costs = engine.view_costs()
        (entry,) = costs["views"]
        assert entry["query"] == query
        assert costs["unattributed"] == 0
        assert entry["cost"] == pytest.approx(costs["total"])
        assert costs["total"] > 0
        direct = engine.evaluate(query, use_views=False)
        assert keeper.multiset() == direct.multiset()

    def test_costs_need_no_metrics_flag(self):
        graph = PropertyGraph()
        engine = IncrementalEngine(graph)
        assert engine.metrics is None
        engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        assert engine.view_costs()["total"] > 0

    def test_batched_windows_sum_to_total(self):
        """Coalesced transactions book their work the same way: one entry
        per view with a fixed shape, summing to the total."""
        graph = PropertyGraph()
        engine = QueryEngine(graph, batch_transactions=True)
        engine.register("MATCH (p:Post) RETURN p.lang AS lang")
        engine.register("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        rng = random.Random(11)
        for _ in range(10):
            with graph.transaction():
                for _ in range(rng.randint(1, 4)):
                    vertices = list(graph.vertices())
                    edges = list(graph.edges())
                    _random_op(rng, vertices, edges)(graph)
        costs = engine.view_costs()
        assert [entry["view"] for entry in costs["views"]] == [0, 1]
        for entry in costs["views"]:
            assert set(entry) == {"view", "query", "cost", "shared_cost"}
        assert costs["total"] > 0
        assert_sums_to_total(costs)
