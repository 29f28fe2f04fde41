"""Differential oracle: observability must not change what views compute.

``collect_metrics=True`` and ``trace_batches=True`` add timing and span
recording around the maintenance pipeline; the pinned contract is that
they are *pure observers*.  The mirror class here drives identical random
streams through an instrumented engine and a flags-off baseline (the
exact prior-PR path) and requires identical per-view multisets and
``on_change`` logs throughout — across per-event and batched propagation,
rollback transactions, the columnar ablation and mid-stream
register/detach.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError

from ..rete.test_columnar import oracle
from ..rete.test_sharing import _Abort, _random_op

QUERIES = (
    "MATCH (p:Post) RETURN p.lang AS lang",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c",
)

#: instrumentation variants the oracle must hold for, individually and
#: combined
OBS_FLAGS = (
    {"collect_metrics": True},
    {"trace_batches": True},
    {"collect_metrics": True, "trace_batches": True},
)

OBS_IDS = ["metrics", "trace", "metrics+trace"]


class ObsMirrorPair:
    """An instrumented engine and its flags-off baseline, fed identically."""

    def __init__(self, obs=None, **flags):
        obs = obs or {"collect_metrics": True, "trace_batches": True}
        self.graphs = (PropertyGraph(), PropertyGraph())
        self.engines = (
            QueryEngine(self.graphs[0], **obs, **flags),
            QueryEngine(self.graphs[1], **flags),
        )
        self.registered: list[str] = []
        self.views: list[tuple] = []
        self.logs: list[tuple] = []

    def register(self, query: str) -> None:
        pair, logs = [], []
        for engine in self.engines:
            view = engine.register(query)
            log: list = []
            view.on_change(log.append)
            pair.append(view)
            logs.append(log)
        self.registered.append(query)
        self.views.append(tuple(pair))
        self.logs.append(tuple(logs))

    def detach(self, index: int) -> None:
        for view in self.views.pop(index):
            view.detach()
        self.registered.pop(index)
        self.logs.pop(index)

    def apply(self, op) -> None:
        for graph in self.graphs:
            op(graph)

    def assert_consistent(self, use_oracle: bool = False) -> None:
        for query, (instrumented, baseline) in zip(self.registered, self.views):
            assert instrumented.multiset() == baseline.multiset(), query
            if use_oracle:
                assert instrumented.multiset() == oracle(
                    self.graphs[0], query
                ), query
        for query, (instrumented_log, baseline_log) in zip(
            self.registered, self.logs
        ):
            assert instrumented_log == baseline_log, query


def _drive(pair, rng, operations=40, rollback_chance=0.1, oracle_every=10):
    for step in range(operations):
        vertices = list(pair.graphs[0].vertices())
        edges = list(pair.graphs[0].edges())
        if rng.random() < rollback_chance:
            ops = [
                _random_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 4))
            ]

            def aborted(graph, ops=ops):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                        raise _Abort()
                except (_Abort, GraphError):
                    pass

            pair.apply(aborted)
        else:
            pair.apply(_random_op(rng, vertices, edges))
        pair.assert_consistent(use_oracle=step % oracle_every == 0)
    pair.assert_consistent(use_oracle=True)


class TestObservabilityIsPure:
    @pytest.mark.parametrize("obs", OBS_FLAGS, ids=OBS_IDS)
    def test_per_event_stream_matches_baseline(self, obs):
        pair = ObsMirrorPair(obs=obs)
        for query in QUERIES:
            pair.register(query)
        _drive(pair, random.Random(2100))

    @pytest.mark.parametrize("obs", OBS_FLAGS, ids=OBS_IDS)
    def test_batched_transactions_match_baseline(self, obs):
        rng = random.Random(2200)
        pair = ObsMirrorPair(obs=obs, batch_transactions=True)
        for query in QUERIES:
            pair.register(query)
        for _ in range(20):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            ops = [
                _random_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 5))
            ]
            abort = rng.random() < 0.3

            def run(graph, ops=ops, abort=abort):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                        if abort:
                            raise _Abort()
                except (_Abort, GraphError):
                    pass

            pair.apply(run)
            pair.assert_consistent(use_oracle=True)

    @pytest.mark.parametrize(
        "flags",
        [{}, {"batch_transactions": True}],
        ids=["default", "batch_transactions=True"],
    )
    def test_flag_matrix_matches_baseline(self, flags):
        """Instrumentation composes with every other engine option."""
        pair = ObsMirrorPair(**flags)
        for query in QUERIES:
            pair.register(query)
        _drive(pair, random.Random(2300), operations=25)

    def test_mid_stream_register_and_detach(self):
        rng = random.Random(2400)
        pair = ObsMirrorPair()
        pair.register(QUERIES[2])
        for step in range(40):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            roll = rng.random()
            if roll < 0.15:
                pair.register(QUERIES[rng.randrange(len(QUERIES))])
            elif roll < 0.25 and len(pair.views) > 1:
                pair.detach(rng.randrange(len(pair.views)))
            else:
                pair.apply(_random_op(rng, vertices, edges))
            pair.assert_consistent(use_oracle=step % 10 == 0)
        pair.assert_consistent(use_oracle=True)

    def test_instrumented_engine_actually_measures(self):
        """Guard against the oracle passing because metrics never engage."""
        pair = ObsMirrorPair()
        pair.register(QUERIES[0])
        pair.apply(
            lambda g: g.add_vertex(labels=["Post"], properties={"lang": "en"})
        )
        snapshot = pair.engines[0].metrics_snapshot()
        assert snapshot["repro_events_total"]["value"] >= 1
        assert pair.engines[0].last_trace is not None
        assert pair.engines[1].metrics_snapshot() is None
        assert pair.engines[1].last_trace is None
