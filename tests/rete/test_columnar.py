"""Columnar delta batches: the column path held to recomputation.

Batches travel the networks as :class:`~repro.rete.deltas.ColumnDelta`,
and the binding tier's discriminants are composite value tuples.  The
differential classes drive random streams through one engine and require
every view to equal recomputation, and every ``on_change`` log to replay
to its view, after each step — under ``batch_transactions``, rollback
transactions, batched windows and mid-stream register/detach.  Mechanics
classes pin the representation itself (lazy transposition, unconsolidated
occurrence lists), the zero-count index invariant, composite binding
probes, and the profile columns.
"""

import random

import pytest

from repro import PropertyGraph
from repro.errors import GraphError
from repro.rete.deltas import (
    ColumnDelta,
    Delta,
    index_insert,
)
from repro.rete.engine import IncrementalEngine

from .oracle import OracleMirror
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


def register_all(mirror: OracleMirror) -> None:
    for query in QUERIES:
        mirror.register(query)
    for query, names in PARAM_QUERIES:
        for lang in LANGS[:3]:
            binding = {"lang": lang}
            if "score" in names:
                binding["score"] = SCORES[0]
            mirror.register(query, binding)


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


def _drive(mirror, rng, operations=60, rollback_chance=0.08):
    for _ in range(operations):
        vertices = list(mirror.graph.vertices())
        edges = list(mirror.graph.edges())
        if rng.random() < rollback_chance:
            ops = [
                _columnar_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 4))
            ]
            _aborted(ops)(mirror.graph)
        else:
            _columnar_op(rng, vertices, edges)(mirror.graph)
        mirror.assert_consistent()


class TestColumnarDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_recomputation(self, seed):
        mirror = OracleMirror(PropertyGraph())
        register_all(mirror)
        _drive(mirror, random.Random(900 + seed))

    def test_batched_option_matches_recomputation(self):
        """The column path composes with ``batch_transactions``."""
        mirror = OracleMirror(PropertyGraph(), batch_transactions=True)
        register_all(mirror)
        _drive(mirror, random.Random(42), operations=30)

    @pytest.mark.parametrize("seed", range(2))
    def test_batched_transactions_match_recomputation(self, seed):
        rng = random.Random(1000 + seed)
        mirror = OracleMirror(PropertyGraph(), batch_transactions=True)
        register_all(mirror)
        for _ in range(20):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            ops = [
                _columnar_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 5))
            ]
            if rng.random() < 0.3:
                _aborted(ops)(mirror.graph)
            else:
                try:
                    with mirror.graph.transaction():
                        for op in ops:
                            op(mirror.graph)
                except GraphError:
                    pass
            mirror.assert_consistent()

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach(self, seed):
        """Late joiners replay shared state (always row-form) correctly."""
        rng = random.Random(1100 + seed)
        mirror = OracleMirror(PropertyGraph())
        mirror.register(QUERIES[2])
        pool = [(query, None) for query in QUERIES] + [
            (query, {"lang": lang, **({"score": 1} if "score" in names else {})})
            for query, names in PARAM_QUERIES
            for lang in LANGS[:3]
        ]
        for _ in range(50):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            roll = rng.random()
            if roll < 0.15:
                query, parameters = pool[rng.randrange(len(pool))]
                mirror.register(query, parameters)
            elif roll < 0.25 and len(mirror.views) > 1:
                mirror.detach(rng.randrange(len(mirror.views)))
            else:
                _columnar_op(rng, vertices, edges)(mirror.graph)
            mirror.assert_consistent()

    def test_state_delta_replay_parity_after_stream(self):
        """Registering every query again after a long stream must replay
        shared node state (``state_delta``) to the contents the
        continuously-maintained views hold."""
        rng = random.Random(7)
        mirror = OracleMirror(PropertyGraph())
        register_all(mirror)
        for _ in range(40):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            _columnar_op(rng, vertices, edges)(mirror.graph)
        before = len(mirror.views)
        for query, parameters in list(mirror.registered[:before]):
            mirror.register(query, parameters)
        for maintained, replayed in zip(mirror.views, mirror.views[before:]):
            assert replayed.multiset() == maintained.multiset()
        mirror.assert_consistent()


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

    def test_to_delta_sums_occurrences(self):
        batch = ColumnDelta.from_rows([(1,), (1,)], [1, 1], 1)
        assert dict(batch.to_delta().items()) == {(1,): 2}

    def test_concat_keeps_every_occurrence_in_order(self):
        first = ColumnDelta.from_rows([(1, "a")], [-1], 2)
        second = ColumnDelta.from_rows([(True, "a"), (2, "b")], [1, 1], 2)
        batch = ColumnDelta.concat([first, second])
        assert [repr(row) for row in batch.rows()] == [
            "(1, 'a')", "(True, 'a')", "(2, 'b')"
        ]
        assert batch.mults == [-1, 1, 1] and batch.width == 2
        assert first.columns == [[1], ["a"]]  # the parts are left as they were

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

    def test_non_atom_binding_falls_back_to_scan(self):
        graph, engine = _engine_pair()
        self.seed(graph)
        matching = _register(engine, self.QUERY, {"lang": "en", "score": 1})
        null_bound = _register(engine, self.QUERY, {"lang": None, "score": 1})
        graph.add_vertex(labels=["Post"], properties={"score": 1})
        assert len(matching.rows()) == 1
        assert len(null_bound.rows()) == 0  # NULL = NULL is not truth


class TestProfile:
    def test_profile_reports_rows_per_call(self):
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
        header, _, *lines = report.splitlines()
        assert "rows/call" in header
        # every delta is a column batch: a batch-fill column would repeat rows/call
        assert "batch fill" not in header
        production = next(line for line in lines if line.startswith("Production"))
        # the batch's five edges reach the view in one call
        assert float(production.split()[-3]) == 5.0
        assert len(view.rows()) == 5
