"""Coalesced maintenance: a batched engine against its per-event twin.

``engine.batch()`` windows and ``batch_transactions`` fold a window's
elementary events into one consolidated batch before any Rete node runs.
That must be *invisible*: the mirror class here drives identical random
streams through an engine that coalesces every step and a per-event
baseline, and requires identical per-view contents and net change deltas
throughout — with parameterised views lifted into partitions,
multi-operation windows, rollback transactions, mid-stream
register/detach and a view joining inside an open window — with
recomputation as the oracle.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.rete.deltas import Delta

from .test_columnar import LANGS, PARAM_QUERIES, QUERIES, _columnar_op, oracle
from .test_sharing import _Abort

def _merged(deltas) -> Delta:
    total = Delta()
    for delta in deltas:
        total.update(delta)
    return total


def _bound_pool():
    return [(query, None) for query in QUERIES] + [
        (query, {"lang": lang, **({"score": 1} if "score" in names else {})})
        for query, names in PARAM_QUERIES
        for lang in LANGS[:3]
    ]


class BatchMirrorPair:
    """An engine that coalesces every step and its per-event baseline.

    Change logs are compared as *net deltas per step*: a coalesced window
    touching two input signatures of one view fires once with the merged
    delta where the per-event baseline may fire several times — identical
    net effect, different granularity.
    """

    def __init__(self, batched: dict | None = None, **flags):
        self.graphs = (PropertyGraph(), PropertyGraph())
        self.engines = (
            QueryEngine(self.graphs[0], **{**flags, **(batched or {})}),
            QueryEngine(self.graphs[1], **flags),
        )
        self.registered: list[tuple[str, dict | None]] = []
        self.views: list[tuple] = []
        self.logs: list[tuple] = []

    def register(self, query: str, parameters=None) -> None:
        pair, logs = [], []
        for engine in self.engines:
            view = engine.register(query, parameters=parameters)
            log: list = []
            view.on_change(log.append)
            pair.append(view)
            logs.append(log)
        self.registered.append((query, parameters))
        self.views.append(tuple(pair))
        self.logs.append(tuple(logs))

    def register_all(self) -> None:
        for query, parameters in _bound_pool():
            self.register(query, parameters)

    def detach(self, index: int) -> None:
        for view in self.views.pop(index):
            view.detach()
        self.registered.pop(index)
        self.logs.pop(index)

    def apply(self, op) -> None:
        """Run *op* as one window on the batched side, per event on the
        baseline."""
        with self.engines[0].batch():
            op(self.graphs[0])
        op(self.graphs[1])

    def apply_window(self, ops) -> None:
        def window(graph):
            for op in ops:
                op(graph)

        self.apply(window)

    def assert_consistent(self, use_oracle: bool = False) -> None:
        for (query, parameters), (batched, baseline) in zip(
            self.registered, self.views
        ):
            assert batched.multiset() == baseline.multiset(), (query, parameters)
            if use_oracle:
                assert batched.multiset() == oracle(
                    self.graphs[0], query, parameters
                ), (query, parameters)
        for (query, parameters), (batched_log, baseline_log) in zip(
            self.registered, self.logs
        ):
            assert _merged(batched_log) == _merged(baseline_log), (
                query,
                parameters,
            )
            batched_log.clear()
            baseline_log.clear()


def _aborted(ops):
    def run(graph):
        try:
            with graph.transaction():
                for op in ops:
                    op(graph)
                raise _Abort()
        except (_Abort, GraphError):
            pass

    return run


def _drive(pair, rng, operations=30, rollback_chance=0.08, oracle_every=10):
    for step in range(operations):
        vertices = list(pair.graphs[0].vertices())
        edges = list(pair.graphs[0].edges())
        if rng.random() < rollback_chance:
            ops = [
                _columnar_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 4))
            ]
            pair.apply(_aborted(ops))
        else:
            pair.apply(_columnar_op(rng, vertices, edges))
        pair.assert_consistent(use_oracle=step % oracle_every == 0)
    pair.assert_consistent(use_oracle=True)


class TestBatchedDifferential:
    @pytest.mark.parametrize("seed", range(2))
    def test_random_stream_matches_per_event(self, seed):
        """One-operation windows."""
        pair = BatchMirrorPair()
        pair.register_all()
        _drive(pair, random.Random(500 + seed))

    def test_batched_windows_match_per_event(self):
        """Multi-operation windows propagate as one net batch each."""
        rng = random.Random(600)
        pair = BatchMirrorPair()
        pair.register_all()
        for _ in range(10):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            pair.apply_window(
                [
                    _columnar_op(rng, vertices, edges)
                    for _ in range(rng.randint(1, 5))
                ]
            )
            pair.assert_consistent(use_oracle=True)

    @pytest.mark.parametrize("seed", range(2))
    def test_rollback_transactions_leave_views_silent(self, seed):
        """batch_transactions: a rolled-back transaction nets to zero
        before any node runs, so its views stay silent; the per-event
        baseline may fire, but its net change is empty too."""
        rng = random.Random(700 + seed)
        pair = BatchMirrorPair(batched={"batch_transactions": True})
        pair.register_all()
        for _ in range(15):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            ops = [
                _columnar_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 5))
            ]
            abort = rng.random() < 0.4

            def run(graph, ops=ops, abort=abort):
                try:
                    with graph.transaction():
                        for op in ops:
                            op(graph)
                        if abort:
                            raise _Abort()
                except (_Abort, GraphError):
                    pass

            before = [views[0].multiset() for views in pair.views]
            for graph in pair.graphs:
                run(graph)
            if abort:
                for views, held in zip(pair.views, before):
                    assert views[0].multiset() == held
                    assert views[1].multiset() == held
                for batched_log, baseline_log in pair.logs:
                    assert batched_log == []
                    assert not _merged(baseline_log)
            pair.assert_consistent(use_oracle=True)

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach(self, seed):
        """Late joiners populate over the coalesced state; detaches leave
        the remaining views exact."""
        rng = random.Random(800 + seed)
        pair = BatchMirrorPair()
        pair.register(QUERIES[2])
        pool = _bound_pool()
        for step in range(40):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            roll = rng.random()
            if roll < 0.15:
                query, parameters = pool[rng.randrange(len(pool))]
                pair.register(query, parameters)
            elif roll < 0.25 and len(pair.views) > 1:
                pair.detach(rng.randrange(len(pair.views)))
            else:
                pair.apply(_columnar_op(rng, vertices, edges))
            pair.assert_consistent(use_oracle=step % 10 == 0)
        pair.assert_consistent(use_oracle=True)

    def test_register_inside_open_batch_window(self):
        """A view joining mid-window flushes the window first."""
        pair = BatchMirrorPair()
        pair.register(QUERIES[0])
        for engine, graph in zip(pair.engines, pair.graphs):
            with engine.batch():
                graph.add_vertex(labels=["Post"], properties={"lang": "en"})
                view = engine.register(QUERIES[1])
                assert view.multiset() == {(1,): 1}
                graph.set_vertex_property(1, "lang", "de")
            assert view.multiset() == {}
        pair.register(QUERIES[1])  # adopt post hoc for the final comparison
        pair.assert_consistent(use_oracle=True)

    def test_callbacks_fire_in_registration_order(self):
        """One window notifies each changed view once, in registration
        order."""
        graph = PropertyGraph()
        engine = QueryEngine(graph)
        order: list[str] = []
        for query in QUERIES[:4]:
            view = engine.register(query)
            view.on_change(lambda delta, q=query: order.append(q))
        with engine.batch():
            post = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
            comm = graph.add_vertex(labels=["Comm"], properties={"lang": "en"})
            graph.add_edge(post, comm, "REPLY")
        assert order == list(QUERIES[:4])
