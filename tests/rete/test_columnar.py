"""Columnar delta batches: differential oracle against the row path.

``columnar_deltas=True`` switches the input/translation layer to emit
:class:`~repro.rete.deltas.ColumnDelta` batches, pushes constant equality
selections into value-level router buckets and input-node filters, and
widens the binding tier's discriminant to composite value tuples.  All of
that must be *invisible*: the mirror classes here drive identical random
streams through a columnar engine and its ``columnar_deltas=False``
baseline (the exact PR 1–5 row path) and require identical per-view
contents and change logs throughout — across the other engine options
(``batch_transactions``, ``detached_cache_size``), rollback
transactions, batched windows, and
mid-stream register/detach.  Mechanics classes pin the representation
itself (lazy transposition, unconsolidated occurrence lists), the
zero-count index invariant, value-level routing, composite binding
probes, and the profile columns.
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.rete.deltas import (
    ColumnDelta,
    Delta,
    as_row_delta,
    index_insert,
)
from repro.rete.engine import IncrementalEngine

from .test_sharing import _Abort, _random_op

#: flows through σ-with-constant, ⋈, δ, γ, π and ⋈* — every boundary the
#: columnar representation crosses (raw consumption or row materialisation)
QUERIES = (
    "MATCH (p:Post) RETURN p.lang AS lang",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN DISTINCT p",
    "MATCH (p:Post)-[:REPLY*1..2]->(c:Comm) RETURN p, c",
)

#: the binding tier: single discriminant, composite discriminant, and a
#: mixed predicate whose second conjunct stays in the residual σ
PARAM_QUERIES = (
    ("MATCH (p:Post) WHERE p.lang = $lang RETURN p", ("lang",)),
    (
        "MATCH (p:Post) WHERE p.lang = $lang AND p.score = $score RETURN p",
        ("lang", "score"),
    ),
    (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.lang = $lang RETURN a, b",
        ("lang",),
    ),
)

LANGS = ("en", "de", "hu", 1, None)
SCORES = (0, 1, 2)


def _columnar_op(rng: random.Random, vertices, edges):
    """The shared mutation pool, extended with a second property column."""
    if vertices and rng.random() < 0.2:
        vertex = rng.choice(vertices)
        value = rng.choice(SCORES)
        return lambda g: g.set_vertex_property(vertex, "score", value)
    return _random_op(rng, vertices, edges)


def oracle(graph: PropertyGraph, query: str, parameters=None):
    from repro.compiler.pipeline import compile_query
    from repro.eval.interpreter import Interpreter

    return Interpreter(graph, parameters).run(compile_query(query).plan).multiset()


class ColumnarMirrorPair:
    """A columnar engine and its row-path baseline, fed identically."""

    def __init__(self, **flags):
        self.graphs = (PropertyGraph(), PropertyGraph())
        self.engines = (
            QueryEngine(self.graphs[0], columnar_deltas=True, **flags),
            QueryEngine(self.graphs[1], columnar_deltas=False, **flags),
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
        for query in QUERIES:
            self.register(query)
        for query, names in PARAM_QUERIES:
            for lang in LANGS[:3]:
                binding = {"lang": lang}
                if "score" in names:
                    binding["score"] = SCORES[0]
                self.register(query, binding)

    def detach(self, index: int) -> None:
        for view in self.views.pop(index):
            view.detach()
        self.registered.pop(index)
        self.logs.pop(index)

    def apply(self, op) -> None:
        for graph in self.graphs:
            op(graph)

    def assert_consistent(self, use_oracle: bool = False) -> None:
        for (query, parameters), (columnar, baseline) in zip(
            self.registered, self.views
        ):
            assert columnar.multiset() == baseline.multiset(), (query, parameters)
            if use_oracle:
                assert columnar.multiset() == oracle(
                    self.graphs[0], query, parameters
                ), (query, parameters)
        for (query, parameters), (columnar_log, baseline_log) in zip(
            self.registered, self.logs
        ):
            assert columnar_log == baseline_log, (query, parameters)


def _drive(pair, rng, operations=60, rollback_chance=0.08, oracle_every=20):
    for step in range(operations):
        vertices = list(pair.graphs[0].vertices())
        edges = list(pair.graphs[0].edges())
        if rng.random() < rollback_chance:
            ops = [
                _columnar_op(rng, vertices, edges)
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
            pair.apply(_columnar_op(rng, vertices, edges))
        pair.assert_consistent(use_oracle=step % oracle_every == 0)
    pair.assert_consistent(use_oracle=True)


class TestColumnarDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_row_baseline(self, seed):
        pair = ColumnarMirrorPair()
        pair.register_all()
        _drive(pair, random.Random(900 + seed))

    @pytest.mark.parametrize(
        "flags",
        [
            {"batch_transactions": True},
            {"detached_cache_size": 0},
            {"batch_transactions": True, "detached_cache_size": 0},
        ],
        ids=lambda flags: ",".join(f"{k}={v}" for k, v in flags.items()),
    )
    def test_flag_matrix_matches_row_baseline(self, flags):
        """Columnar mode composes with every other engine option."""
        pair = ColumnarMirrorPair(**flags)
        pair.register_all()
        _drive(pair, random.Random(42), operations=30, oracle_every=10)

    @pytest.mark.parametrize("seed", range(2))
    def test_batched_transactions_match_baseline(self, seed):
        rng = random.Random(1000 + seed)
        pair = ColumnarMirrorPair(batch_transactions=True)
        pair.register_all()
        for _ in range(20):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            ops = [
                _columnar_op(rng, vertices, edges)
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

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach(self, seed):
        """Late joiners replay shared state (always row-form) correctly."""
        rng = random.Random(1100 + seed)
        pair = ColumnarMirrorPair()
        pair.register(QUERIES[2])
        pool = [(query, None) for query in QUERIES] + [
            (query, {"lang": lang, **({"score": 1} if "score" in names else {})})
            for query, names in PARAM_QUERIES
            for lang in LANGS[:3]
        ]
        for step in range(50):
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

    def test_state_delta_replay_parity_after_stream(self):
        """Registering every query again after a long stream must replay
        shared node state (``state_delta``) to the same contents the
        continuously-maintained twins hold."""
        rng = random.Random(7)
        pair = ColumnarMirrorPair()
        pair.register_all()
        for _ in range(40):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            pair.apply(_columnar_op(rng, vertices, edges))
        before = len(pair.views)
        for query, parameters in list(pair.registered[:before]):
            pair.register(query, parameters)
        for (query, parameters), (columnar, _) in zip(
            pair.registered[before:], pair.views[before:]
        ):
            assert columnar.multiset() == oracle(
                pair.graphs[0], query, parameters
            ), (query, parameters)
        pair.assert_consistent(use_oracle=True)


class TestColumnDelta:
    def test_from_rows_key_column_and_rows_roundtrip(self):
        rows = [(1, "en", 5), (2, "de", 7), (1, "en", 5)]
        mults = [1, -2, 3]
        batch = ColumnDelta.from_rows(rows, mults, 3)
        assert batch.width == 3
        assert list(batch.rows()) == rows
        assert list(batch.key_column((1,))) == [("en",), ("de",), ("en",)]
        assert list(batch.key_column((2, 0))) == [(5, 1), (7, 2), (5, 1)]
        assert list(batch.items()) == list(zip(rows, mults))

    def test_from_delta_to_delta_consolidates(self):
        delta = Delta()
        delta.add((1, "en"), 2)
        delta.add((2, "de"), -1)
        batch = ColumnDelta.from_delta(delta, 2)
        assert sorted(batch.to_delta().items()) == sorted(delta.items())

    def test_occurrences_stay_unconsolidated_until_to_delta(self):
        batch = ColumnDelta.from_rows([(1,), (1,)], [1, -1], 1)
        assert len(batch.mults) == 2  # occurrence list, not a bag
        assert list(batch.to_delta().items()) == []  # cancels on consolidation

    def test_as_row_delta_passes_row_deltas_through(self):
        delta = Delta()
        delta.add((1,), 1)
        assert as_row_delta(delta) is delta
        batch = ColumnDelta.from_rows([(1,), (1,)], [1, 1], 1)
        assert dict(as_row_delta(batch).items()) == {(1,): 2}

    def test_empty_width_zero_rows(self):
        batch = ColumnDelta.from_rows([(), ()], [1, 1], 0)
        assert list(batch.rows()) == [(), ()]
        assert dict(batch.to_delta().items()) == {(): 2}


class TestIndexMaintenance:
    def assert_no_zero_rows(self, index):
        for key, bucket in index.items():
            assert bucket, f"empty bucket retained under {key!r}"
            for row, count in bucket.items():
                assert count != 0, (key, row)

    def test_index_insert_never_retains_zero_counts(self):
        index = {}
        index_insert(index, "k", (1,), 2)
        index_insert(index, "k", (1,), -2)
        assert "k" not in index
        index_insert(index, "k", (1,), 0)  # no-op, must not create a bucket
        assert index == {}
        index_insert(index, "k", (1,), 1)
        index_insert(index, "k", (2,), 1)
        index_insert(index, "k", (1,), -1)
        assert index == {"k": {(2,): 1}}
        self.assert_no_zero_rows(index)


def _engine_pair(**flags):
    graph = PropertyGraph()
    return graph, IncrementalEngine(graph, **flags)


class TestValueRouting:
    def seed_graph(self, graph):
        en = graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        de = graph.add_vertex(labels=["Post"], properties={"lang": "de"})
        return en, de

    def test_constant_selection_registers_value_bucket(self):
        graph, engine = _engine_pair()
        self.seed_graph(graph)
        view = _register(engine, "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        router = engine.input_layer.router
        assert router._v_value_key_counts.get("lang", 0) >= 1
        assert len(view.rows()) == 1

    def test_irrelevant_value_changes_skip_the_node(self):
        graph, engine = _engine_pair()
        en, de = self.seed_graph(graph)
        view = _register(engine, "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        node = next(iter(engine.input_layer._vertex_nodes.values()))
        assert node.value_filters
        activations = []
        inner = node.on_event
        node.on_event = lambda event: (activations.append(event), inner(event))
        # de -> hu: neither old nor new value matches the filter
        graph.set_vertex_property(de, "lang", "hu")
        assert not activations, "value routing must skip non-matching changes"
        assert len(view.rows()) == 1
        # hu -> en: must reach the node and appear in the view
        graph.set_vertex_property(de, "lang", "en")
        assert activations
        assert len(view.rows()) == 2
        # en -> de on the original: retraction also routes by old value
        graph.set_vertex_property(en, "lang", "de")
        assert len(view.rows()) == 1

    def test_filtered_and_unfiltered_nodes_never_collide(self):
        graph, engine = _engine_pair()
        self.seed_graph(graph)
        filtered = _register(engine, "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        unfiltered = _register(engine, "MATCH (p:Post) RETURN p")
        assert len(filtered.rows()) == 1
        assert len(unfiltered.rows()) == 2

    def test_detach_unregisters_value_bucket(self):
        # detached_cache_size=0: no LRU keeps the node alive past detach
        graph, engine = _engine_pair(detached_cache_size=0)
        self.seed_graph(graph)
        view = _register(engine, "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        assert engine.input_layer.router._v_value_key_counts.get("lang", 0) >= 1
        view.detach()
        assert engine.input_layer.router._v_value_key_counts.get("lang", 0) == 0

    def test_row_mode_disables_pushdown_and_batches(self):
        graph, engine = _engine_pair(columnar_deltas=False)
        en, de = self.seed_graph(graph)
        view = _register(engine, "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        for node in engine.input_layer._vertex_nodes.values():
            assert not node.value_filters
            assert not node.columnar
        assert not engine.input_layer.router._v_value_key_counts
        graph.set_vertex_property(de, "lang", "en")
        assert len(view.rows()) == 2
        network = engine.views[0].network
        assert all(
            node.columnar_batches == 0 for node in network.nodes()
        ), "row mode must never see a ColumnDelta"


def _register(engine: IncrementalEngine, query: str, parameters=None):
    from repro.compiler.pipeline import compile_query

    return engine.register(compile_query(query), parameters)


class TestCompositeBindings:
    QUERY = "MATCH (p:Post) WHERE p.lang = $lang AND p.score = $score RETURN p"

    def seed(self, graph):
        for lang, score in (("en", 1), ("en", 2), ("de", 1)):
            graph.add_vertex(
                labels=["Post"], properties={"lang": lang, "score": score}
            )

    def test_composite_discriminant_probes_one_bucket(self):
        graph, engine = _engine_pair()
        self.seed(graph)
        views = {
            (lang, score): _register(
                engine, self.QUERY, {"lang": lang, "score": score}
            )
            for lang in ("en", "de")
            for score in (1, 2)
        }
        layer = engine.input_layer
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 4
        binding_nodes = [entry.node for entry in layer._param_nodes.values()]
        assert len(binding_nodes) == 1
        assert len(binding_nodes[0]._disc_names) == 2  # composite, not first-only
        assert len(views[("en", 1)].rows()) == 1
        assert len(views[("en", 2)].rows()) == 1
        assert len(views[("de", 1)].rows()) == 1
        assert len(views[("de", 2)].rows()) == 0
        extra = graph.add_vertex(
            labels=["Post"], properties={"lang": "de", "score": 2}
        )
        assert len(views[("de", 2)].rows()) == 1
        graph.remove_vertex(extra)
        assert len(views[("de", 2)].rows()) == 0

    def test_row_mode_keeps_single_discriminant(self):
        graph, engine = _engine_pair(columnar_deltas=False)
        self.seed(graph)
        # a lone binding keeps its pushed-down plan; a second lifts both
        _register(engine, self.QUERY, {"lang": "zz", "score": 0})
        view = _register(engine, self.QUERY, {"lang": "en", "score": 1})
        layer = engine.input_layer
        binding_nodes = [entry.node for entry in layer._param_nodes.values()]
        assert len(binding_nodes) == 1
        assert len(binding_nodes[0]._disc_names) == 1  # PR 5 behaviour exactly
        assert len(view.rows()) == 1

    def test_non_atom_binding_falls_back_to_scan(self):
        graph, engine = _engine_pair()
        self.seed(graph)
        matching = _register(engine, self.QUERY, {"lang": "en", "score": 1})
        null_bound = _register(engine, self.QUERY, {"lang": None, "score": 1})
        graph.add_vertex(labels=["Post"], properties={"score": 1})
        assert len(matching.rows()) == 1
        assert len(null_bound.rows()) == 0  # NULL = NULL is not truth


class TestProfile:
    def test_profile_reports_rows_per_call_and_batch_fill(self):
        graph, engine = _engine_pair(batch_transactions=True)
        view = _register(
            engine, "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c"
        )
        with engine.batch():
            posts = [
                graph.add_vertex(labels=["Post"], properties={"lang": "en"})
                for _ in range(5)
            ]
            comment = graph.add_vertex(labels=["Comm"])
            for post in posts:
                graph.add_edge(post, comment, "REPLY")
        report = engine.views[0].profile()
        assert "rows/call" in report
        assert "batch fill" in report
        assert len(view.rows()) == 5

    def test_profile_row_mode_shows_no_batches(self):
        graph, engine = _engine_pair(columnar_deltas=False)
        _register(engine, "MATCH (p:Post) RETURN p")
        graph.add_vertex(labels=["Post"])
        report = engine.views[0].profile()
        assert "rows/call" in report
        assert "batch fill" in report
