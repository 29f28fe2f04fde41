"""Cross-binding sharing: one parameterised query, many bindings.

The canonical "millions of users" workload registers the *same*
parameterised view once per user, differing only in the binding.  With
``share_across_bindings=True`` the engine lifts the parameterised σ above
its binding-free core and cuts it over to one value-indexed
:class:`~repro.rete.nodes.unary.BindingIndexedSelectionNode` with one
output partition per live binding; ``share_across_bindings=False`` keeps
the exact-binding cache keys (and pushed-down plans) as the ablation
baseline.  The differential classes drive identical streams through both
modes and require identical per-view contents and change logs throughout —
random streams, rollback transactions, batched mode, and mid-stream
register/detach across ≥3 distinct bindings.
"""

import itertools
import logging
import random
import types

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.rete.engine import IncrementalEngine
from repro.rete.nodes.unary import SelectionPartitionNode
from repro.rete.sharing import SharedInputLayer, SharedSubplanLayer

from .test_sharing import _Abort, _random_op

#: parameterised shapes: equality (value-indexed), range (scan path),
#: equality under an extra binding-free σ, and a σ feeding an aggregate
PARAM_QUERIES = (
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.lang = $lang RETURN a, b",
    "MATCH (p:Post) WHERE p.lang = $lang RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang AND p.lang = $lang "
    "RETURN p, c",
    "MATCH (p:Post) WHERE p.lang = $lang RETURN p.lang AS lang, count(*) AS n",
)

BINDINGS = ("en", "de", "hu", 1, None)


def param_oracle(engine: IncrementalEngine, query: str, parameters: dict):
    from repro.compiler.pipeline import compile_query
    from repro.eval.interpreter import Interpreter

    return (
        Interpreter(engine.graph, parameters)
        .run(compile_query(query).plan)
        .multiset()
    )


class BindingMirrorPair:
    """A cross-binding engine and its exact-binding baseline, fed identically."""

    def __init__(self, batch_transactions: bool = False):
        self.graphs = (PropertyGraph(), PropertyGraph())
        self.engines = (
            QueryEngine(
                self.graphs[0],
                share_across_bindings=True,
                batch_transactions=batch_transactions,
            ),
            QueryEngine(
                self.graphs[1],
                share_across_bindings=False,
                batch_transactions=batch_transactions,
            ),
        )
        self.registered: list[tuple[str, dict]] = []
        self.views: list[tuple] = []
        self.logs: list[tuple] = []

    def register(self, query: str, parameters: dict) -> None:
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

    def detach(self, index: int) -> None:
        for view in self.views.pop(index):
            view.detach()
        self.registered.pop(index)
        self.logs.pop(index)

    def apply(self, op) -> None:
        for graph in self.graphs:
            op(graph)

    def assert_consistent(self, oracle: bool = False) -> None:
        for (query, parameters), (shared, baseline) in zip(
            self.registered, self.views
        ):
            assert shared.multiset() == baseline.multiset(), (query, parameters)
            if oracle:
                assert shared.multiset() == param_oracle(
                    self.engines[0]._incremental, query, parameters
                ), (query, parameters)
        for (query, parameters), (shared_log, baseline_log) in zip(
            self.registered, self.logs
        ):
            assert shared_log == baseline_log, (query, parameters)


def register_all(pair: BindingMirrorPair, bindings=BINDINGS) -> None:
    for query in PARAM_QUERIES:
        for value in bindings:
            pair.register(query, {"lang": value})


class TestBindingDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_exact_binding_baseline(self, seed):
        pair = BindingMirrorPair()
        register_all(pair)
        rng = random.Random(500 + seed)
        for step in range(60):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            if rng.random() < 0.08:
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
            pair.assert_consistent(oracle=step % 20 == 0)
        pair.assert_consistent(oracle=True)

    @pytest.mark.parametrize("seed", range(2))
    def test_batched_transactions_match_baseline(self, seed):
        rng = random.Random(600 + seed)
        pair = BindingMirrorPair(batch_transactions=True)
        register_all(pair)
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
            pair.assert_consistent(oracle=True)

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach_across_bindings(self, seed):
        """New bindings joining a live node (partition replay) stay exact."""
        rng = random.Random(700 + seed)
        pair = BindingMirrorPair()
        for value in BINDINGS[:2]:
            pair.register(PARAM_QUERIES[0], {"lang": value})
        pool = [
            (query, {"lang": value})
            for query in PARAM_QUERIES
            for value in BINDINGS
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
                pair.apply(_random_op(rng, vertices, edges))
            pair.assert_consistent(oracle=step % 10 == 0)
        pair.assert_consistent(oracle=True)

    def test_mid_batch_register_of_new_binding_matches_baseline(self):
        rng = random.Random(23)
        pair = BindingMirrorPair()
        for value in BINDINGS[:2]:
            pair.register(PARAM_QUERIES[0], {"lang": value})
        for graph in pair.graphs:
            a = graph.add_vertex(labels=["Person"], properties={"lang": "en"})
            b = graph.add_vertex(labels=["Person"], properties={"lang": "de"})
            graph.add_edge(a, b, "KNOWS")
        scopes = [engine.batch() for engine in pair.engines]
        for scope in scopes:
            scope.__enter__()
        try:
            for _ in range(8):
                vertices = list(pair.graphs[0].vertices())
                edges = list(pair.graphs[0].edges())
                pair.apply(_random_op(rng, vertices, edges))
            for value in BINDINGS[2:]:
                pair.register(PARAM_QUERIES[0], {"lang": value})
            for _ in range(8):
                vertices = list(pair.graphs[0].vertices())
                edges = list(pair.graphs[0].edges())
                pair.apply(_random_op(rng, vertices, edges))
        finally:
            for scope in scopes:
                scope.__exit__(None, None, None)
        pair.assert_consistent(oracle=True)


class TestBindingMechanics:
    def graph_with_people(self):
        graph = PropertyGraph()
        people = []
        for lang in ("en", "de", "hu", "en"):
            people.append(
                graph.add_vertex(labels=["Person"], properties={"lang": lang})
            )
        graph.add_edge(people[0], people[1], "KNOWS")
        graph.add_edge(people[1], people[2], "KNOWS")
        graph.add_edge(people[3], people[0], "KNOWS")
        return graph, people

    def test_differing_bindings_share_one_node_and_core(self):
        graph, _ = self.graph_with_people()
        engine = IncrementalEngine(graph)
        layer = engine.input_layer
        for value in ("en", "de", "hu"):
            engine.register(PARAM_QUERIES[0], parameters={"lang": value})
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 3
        # the ⋈(©Person, ⇑KNOWS) core was built exactly once
        join_entries = [
            entry
            for entry in layer._subplans.values()
            if type(entry.node).__name__ == "JoinNode"
        ]
        assert len(join_entries) == 1

    def test_same_binding_twins_share_the_partition(self):
        graph, _ = self.graph_with_people()
        engine = IncrementalEngine(graph)
        layer = engine.input_layer
        first = engine.register(PARAM_QUERIES[0], parameters={"lang": "en"})
        hits_before = layer.stats.subplan_hits
        twin = engine.register(PARAM_QUERIES[0], parameters={"lang": "en"})
        assert layer.stats.subplan_hits > hits_before
        assert layer.binding_partition_count == 1
        assert twin.multiset() == first.multiset()

    def test_differently_named_parameters_share_across_bindings(self):
        """$lang vs $l: the generalised fingerprint ignores the name."""
        graph, _ = self.graph_with_people()
        engine = IncrementalEngine(graph)
        layer = engine.input_layer
        by_lang = engine.register(
            "MATCH (p:Person) WHERE p.lang = $lang RETURN p",
            parameters={"lang": "en"},
        )
        by_l = engine.register(
            "MATCH (x:Person) WHERE x.lang = $l RETURN x",
            parameters={"l": "de"},
        )
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 2
        assert by_lang.multiset() == param_oracle(
            engine, "MATCH (p:Person) WHERE p.lang = $lang RETURN p", {"lang": "en"}
        )
        assert by_l.multiset() == param_oracle(
            engine, "MATCH (p:Person) WHERE p.lang = $l RETURN p", {"l": "de"}
        )

    def test_equal_but_differently_typed_bindings_stay_partitioned(self):
        """1 == True == 1.0 in Python; partitions must not conflate them."""
        graph = PropertyGraph()
        for value in (1, True, 1.0, "1"):
            graph.add_vertex(labels=["Post"], properties={"lang": value})
        engine = IncrementalEngine(graph)
        query = "MATCH (p:Post) WHERE p.lang = $lang RETURN p.lang AS v"
        views = {
            repr(value): engine.register(query, parameters={"lang": value})
            for value in (1, True, 1.0, "1")
        }
        assert engine.input_layer.binding_partition_count == 4
        for value in (1, True, 1.0, "1"):
            rows = views[repr(value)].rows()
            assert rows == [(value,)] or (
                # Cypher numeric equality: 1 and 1.0 match each other's rows
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and sorted(rows, key=repr) == [(1,), (1.0,)]
            ), (value, rows)
        # exactness against recomputation is the real gate
        for value in (1, True, 1.0, "1"):
            assert views[repr(value)].multiset() == param_oracle(
                engine, query, {"lang": value}
            ), value

    def test_collection_and_null_bindings_use_the_scan_path(self):
        graph = PropertyGraph()
        graph.add_vertex(labels=["Post"], properties={"lang": [1, 2]})
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        graph.add_vertex(labels=["Post"])
        engine = IncrementalEngine(graph)
        query = "MATCH (p:Post) WHERE p.lang = $lang RETURN p"
        as_list = engine.register(query, parameters={"lang": [1, 2]})
        as_null = engine.register(query, parameters={"lang": None})
        as_str = engine.register(query, parameters={"lang": "en"})
        assert engine.input_layer.binding_node_count == 1
        assert len(as_list.rows()) == 1
        assert as_null.rows() == []  # lang = null is never true
        assert len(as_str.rows()) == 1
        graph.add_vertex(labels=["Post"], properties={"lang": [1, 2]})
        assert len(as_list.rows()) == 2
        for view, value in ((as_list, [1, 2]), (as_null, None), (as_str, "en")):
            assert view.multiset() == param_oracle(engine, query, {"lang": value})

    def test_range_predicates_share_without_a_value_index(self):
        graph = PropertyGraph()
        for score in (1, 2, 3, 4):
            graph.add_vertex(labels=["Post"], properties={"score": score})
        engine = IncrementalEngine(graph)
        query = "MATCH (p:Post) WHERE p.score > $min RETURN p"
        views = {
            value: engine.register(query, parameters={"min": value})
            for value in (1, 2, 3)
        }
        assert engine.input_layer.binding_node_count == 1
        assert engine.input_layer.binding_partition_count == 3
        assert {v: len(view.rows()) for v, view in views.items()} == {
            1: 3,
            2: 2,
            3: 1,
        }
        graph.add_vertex(labels=["Post"], properties={"score": 10})
        assert {v: len(view.rows()) for v, view in views.items()} == {
            1: 4,
            2: 3,
            3: 2,
        }

    def test_detach_of_one_binding_leaves_others_live(self):
        graph, people = self.graph_with_people()
        engine = IncrementalEngine(graph)
        views = {
            value: engine.register(PARAM_QUERIES[0], parameters={"lang": value})
            for value in ("en", "de", "hu")
        }
        views["de"].detach()
        late = graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        graph.add_edge(late, people[1], "KNOWS")
        for value in ("en", "hu"):
            assert views[value].multiset() == param_oracle(
                engine, PARAM_QUERIES[0], {"lang": value}
            ), value

    def test_ablation_engine_keeps_exact_binding_keys(self):
        graph, _ = self.graph_with_people()
        engine = IncrementalEngine(graph, share_across_bindings=False)
        layer = engine.input_layer
        assert isinstance(layer, SharedSubplanLayer)
        for value in ("en", "de"):
            engine.register(PARAM_QUERIES[0], parameters={"lang": value})
        assert layer.binding_node_count == 0
        assert layer.binding_partition_count == 0

    def test_profile_marks_the_shared_partition(self):
        graph, _ = self.graph_with_people()
        engine = IncrementalEngine(graph)
        view = engine.register(PARAM_QUERIES[0], parameters={"lang": "en"})
        assert "BindingIndexedSelection (shared)" in view.profile()
        assert "SelectionPartition (shared)" in view.profile()


class TestBindingLifecycle:
    def test_all_bindings_detached_drops_node_and_core(self):
        graph = PropertyGraph()
        graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        engine = IncrementalEngine(graph, detached_cache_size=0)
        layer = engine.input_layer
        views = [
            engine.register(PARAM_QUERIES[0], parameters={"lang": value})
            for value in ("en", "de", "hu")
        ]
        assert layer.binding_node_count == 1
        views[0].detach()
        views[1].detach()
        # surviving binding keeps node and core alive
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 1
        views[2].detach()
        assert layer.binding_node_count == 0
        assert layer.binding_partition_count == 0
        assert layer.subplan_count == 0
        assert layer.node_count == 0

    def test_detached_binding_is_retained_and_revived(self):
        graph = PropertyGraph()
        graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        engine = IncrementalEngine(graph, detached_cache_size=4)
        layer = engine.input_layer
        view = engine.register(PARAM_QUERIES[1], parameters={"lang": "en"})
        keeper = engine.register(PARAM_QUERIES[1], parameters={"lang": "de"})
        partitions_before = layer.stats.binding_partitions
        view.detach()
        assert layer.binding_partition_count == 2  # retained, still maintained
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        revived = engine.register(PARAM_QUERIES[1], parameters={"lang": "en"})
        # revival reused the retained partition instead of building anew
        assert layer.stats.binding_partitions == partitions_before
        assert layer.stats.detached_revived >= 1
        assert revived.multiset() == param_oracle(
            engine, PARAM_QUERIES[1], {"lang": "en"}
        )
        assert keeper.multiset() == param_oracle(
            engine, PARAM_QUERIES[1], {"lang": "de"}
        )

    @pytest.mark.parametrize("cache_size", [0, 2])
    def test_reregister_under_a_different_binding_is_not_served_stale(
        self, cache_size
    ):
        """register → detach → re-register under a *different* binding.

        The detached-LRU revival path must never hand the new binding the
        old binding's partition (or, in the ablation, the old resolved
        subplan) — partition keys carry the binding, so this pins that
        isolation for both modes and both cache sizes.
        """
        for share in (True, False):
            graph = PropertyGraph()
            for lang in ("en", "en", "de"):
                graph.add_vertex(labels=["Post"], properties={"lang": lang})
            engine = IncrementalEngine(
                graph,
                detached_cache_size=cache_size,
                share_across_bindings=share,
            )
            first = engine.register(PARAM_QUERIES[1], parameters={"lang": "en"})
            assert len(first.rows()) == 2
            first.detach()
            second = engine.register(PARAM_QUERIES[1], parameters={"lang": "de"})
            assert len(second.rows()) == 1, (share, cache_size)
            assert second.multiset() == param_oracle(
                engine, PARAM_QUERIES[1], {"lang": "de"}
            ), (share, cache_size)
            graph.add_vertex(labels=["Post"], properties={"lang": "de"})
            graph.add_vertex(labels=["Post"], properties={"lang": "en"})
            assert second.multiset() == param_oracle(
                engine, PARAM_QUERIES[1], {"lang": "de"}
            ), (share, cache_size)

    def test_random_register_detach_cycles_leave_no_garbage(self):
        rng = random.Random(101)
        graph = PropertyGraph()
        for lang in ("en", "de", "hu"):
            graph.add_vertex(labels=["Person"], properties={"lang": lang})
            graph.add_vertex(labels=["Post"], properties={"lang": lang})
        engine = IncrementalEngine(graph, detached_cache_size=0)
        live = []
        pool = [
            (query, {"lang": value})
            for query in PARAM_QUERIES
            for value in BINDINGS[:4]
        ]
        for _ in range(50):
            if live and rng.random() < 0.45:
                live.pop(rng.randrange(len(live))).detach()
            else:
                query, parameters = pool[rng.randrange(len(pool))]
                live.append(engine.register(query, parameters=parameters))
        for view in live:
            view.detach()
        layer = engine.input_layer
        assert layer.binding_node_count == 0
        assert layer.binding_partition_count == 0
        assert layer.subplan_count == 0
        assert layer.node_count == 0


class TestSharingLayerRegressions:
    """The PR's satellite bugfixes, pinned."""

    def test_double_release_clamps_at_zero(self, caplog):
        graph = PropertyGraph()
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        engine = IncrementalEngine(graph, detached_cache_size=0)
        layer = engine.input_layer
        view = engine.register("MATCH (p:Post) RETURN p")
        keeper = engine.register("MATCH (p:Post) RETURN p")
        key = next(iter(layer._subplans))
        entry = layer._subplans[key]
        assert entry.refcount == 2  # one acquire per view
        layer.release(key)
        layer.release(key)
        with caplog.at_level(logging.WARNING, logger="repro.rete.sharing"):
            layer.release(key)  # the double release (detach raced a prune)
        assert entry.refcount == 0  # clamped, never negative
        assert layer.stats.release_underflows == 1
        assert any(
            "without matching acquire" in message for message in caplog.messages
        )
        # liveness is intact: a fresh acquire still protects the subplan
        layer.acquire(key)
        layer.prune()
        assert key in layer._subplans
        layer.release(key)
        view.detach()
        keeper.detach()
        assert layer.subplan_count == 0

    def test_probes_do_not_count_revivals(self):
        graph = PropertyGraph()
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        engine = IncrementalEngine(graph, detached_cache_size=4)
        layer = engine.input_layer
        view = engine.register("MATCH (p:Post) RETURN p, p.lang")
        view.detach()
        assert layer.detached_count > 0
        assert layer.stats.detached_revived == 0
        key = next(iter(layer._detached_lru))
        # EXPLAIN/matcher-style probes: neither peek nor bare lookup revive
        layer.subplan_peek(key)
        layer.subplan_lookup(key)
        layer.subplan_lookup(key)
        assert layer.stats.detached_revived == 0
        # an actual re-registration acquires — exactly one revival
        engine.register("MATCH (p:Post) RETURN p, p.lang")
        assert layer.stats.detached_revived == 1


# ---------------------------------------------------------------------------
# restricted replay: a new binding on a live core asks the core's memories
# for its own rows instead of folding the whole core
# ---------------------------------------------------------------------------

NAN = float("nan")

#: shapes whose equality discriminants are bare columns — the new binding's
#: partition must carry a restriction; ``(query, first binding, new ones)``
RESTRICTED_SHAPES = {
    # restricted column in the ⋈'s left memory (© payload)
    "left": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.name = $v RETURN a, b",
        {"v": "p1"},
        [{"v": "p2"}, {"v": "nobody"}],
    ),
    # restricted column in the ⋈'s right memory (⇑ payload)
    "right": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.name = $v RETURN a, b",
        {"v": "p1"},
        [{"v": "p2"}, {"v": "nobody"}],
    ),
    # restricted column *is* the join key (vertex ids are plain ints, from
    # 1): an equal-but-differently-typed binding probes the right bucket
    # and must neither pass the predicate as itself (True) nor show up in
    # the rows in place of the stored id (1.0, 4.0)
    "join-key": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a = $v RETURN a, b",
        {"v": 0},
        [{"v": 3}, {"v": 4.0}, {"v": True}, {"v": 1.0}, {"v": 10**6}],
    ),
    # the same on the far end: the survivors' keys probe the other memory
    "join-key-right": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b = $v RETURN a, b",
        {"v": 0},
        [{"v": 3}, {"v": 4.0}, {"v": True}, {"v": 1.0}],
    ),
    # forwarded through a stateless binding-free σ (_e1 <> _e2)
    "below-sigma": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
        "WHERE c.name = $v RETURN a, c",
        {"v": "p1"},
        [{"v": "p2"}],
    ),
    # forwarded through a bare-column π
    "below-pi": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WITH a.name AS n, b "
        "WHERE n = $v RETURN n, b",
        {"v": "p1"},
        [{"v": "p2"}],
    ),
    # the ic1_fof shape: σ over ⋈ over σ over ⋈*
    "fof": (
        "MATCH (p:Person)-[:KNOWS*1..2]->(f:Person) "
        "WHERE p.name = $v AND p <> f RETURN DISTINCT f.name AS friend",
        {"v": "p1"},
        [{"v": "p2"}],
    ),
    # σ directly over ⋈*: the closure restricts its left rows by source
    "closure": (
        "MATCH (p:Person)-[:KNOWS*1..2]->(f) WHERE p.name = $v RETURN p, f",
        {"v": "p1"},
        [{"v": "p2"}],
    ),
    "composite": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) "
        "WHERE a.x = $p AND a.y = $q RETURN a, b",
        {"p": 2, "q": 0},
        [{"p": 1, "q": 1}, {"p": "1", "q": 2}],
    ),
    # Python conflates 1 == True == 1.0: the prefilter over-approximates
    # and the predicate must weed the candidates out again
    "mixed-types": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.x = $v RETURN a, b",
        {"v": 2},
        [{"v": 1}, {"v": True}, {"v": 1.0}, {"v": "1"}, {"v": NAN}],
    ),
}

#: bindings/predicates the value index cannot discriminate: the partition
#: carries no restriction and the core is folded in full, as before
FALLBACK_SHAPES = {
    "range": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.age > $v RETURN a, b",
        {"v": 3},
        [{"v": 10}],
    ),
    "null": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.x = $v RETURN a, b",
        {"v": 2},
        [{"v": None}],
    ),
    "list": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.tags = $v RETURN a, b",
        {"v": ["t0"]},
        [{"v": ["t1", "x"]}],
    ),
    "computed": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) "
        "WHERE a.age + 1 = $v RETURN a, b",
        {"v": 3},
        [{"v": 5}],
    ),
}


def people_graph(persons: int = 24, seed: int = 5):
    rng = random.Random(seed)
    graph = PropertyGraph()
    people = [
        graph.add_vertex(
            labels=["Person"],
            properties={
                "name": f"p{i % 5}",
                "x": [1, True, 1.0, "1", 2, None, NAN][i % 7],
                "y": i % 3,
                "age": i,
                "tags": [f"t{i % 2}", "x"][: 1 + i % 2],
            },
        )
        for i in range(persons)
    ]
    edges = [
        graph.add_edge(rng.choice(people), rng.choice(people), "KNOWS")
        for _ in range(3 * persons)
    ]
    return graph, people, edges


def churn(graph, people, edges, rng, steps: int = 25) -> None:
    """Mutations that free and refill ColumnStore slots in the cores."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4 and edges:
            graph.remove_edge(edges.pop(rng.randrange(len(edges))))
        elif roll < 0.7:
            edges.append(
                graph.add_edge(rng.choice(people), rng.choice(people), "KNOWS")
            )
        else:
            # ``x`` stays put: a stored 1 turning into True is conflated by
            # every Python-equality memory (ROADMAP item 3, hostile values)
            graph.set_vertex_property(
                rng.choice(people), "name", f"p{rng.randrange(5)}"
            )


def exact(bag) -> dict:
    """*bag* keyed type-exactly: ``==`` on rows conflates 1, True and 1.0,
    which is precisely what a restricted look-up could get wrong."""
    return {
        tuple((type(value).__name__, repr(value)) for value in row): mult
        for row, mult in dict(bag).items()
    }


def assert_tracks(engine, view, query, parameters, label=None) -> None:
    oracle = engine.evaluate(query, parameters, use_views=False)
    assert exact(view.multiset()) == exact(oracle.multiset()), (
        label or query,
        parameters,
    )


def partition_of(view):
    (facade,) = [
        node
        for node in view.network.nodes()
        if isinstance(node, SelectionPartitionNode)
    ]
    return facade


def both_folds(layer, facade):
    """The partition's state via the restricted look-up and via the full
    fold of the core (the same function under an empty restriction)."""
    restricted = exact(layer.state_delta(facade))
    pairs, facade.restriction = facade.restriction, ()
    try:
        full = exact(layer.state_delta(facade))
    finally:
        facade.restriction = pairs
    return restricted, full


def assert_new_binding_exact(engine, query, parameters, restricted: bool):
    view = engine.register(query, parameters=parameters)
    assert_tracks(engine, view, query, parameters)
    facade = partition_of(view)
    assert bool(facade.restriction) == restricted, (query, parameters)
    narrow, full = both_folds(engine._incremental.input_layer, facade)
    assert narrow == full, (query, parameters)
    return view


ALL_SHAPES = [
    (name, shape, True) for name, shape in RESTRICTED_SHAPES.items()
] + [(name, shape, False) for name, shape in FALLBACK_SHAPES.items()]


class TestRestrictedReplay:
    @pytest.mark.parametrize(
        "name,shape,restricted", ALL_SHAPES, ids=[s[0] for s in ALL_SHAPES]
    )
    @pytest.mark.parametrize("batched", [False, True])
    def test_new_binding_equals_recomputation_and_full_fold(
        self, name, shape, restricted, batched
    ):
        query, first, later = shape
        graph, people, edges = people_graph()
        engine = QueryEngine(graph, batch_transactions=batched)
        rng = random.Random(11)
        views = [(engine.register(query, parameters=first), first)]
        for parameters in later:
            # freed slots first: the scan must skip them and reused slots
            # must be found under their new values
            if batched:
                with graph.transaction():
                    churn(graph, people, edges, rng)
            else:
                churn(graph, people, edges, rng)
            views.append(
                (
                    assert_new_binding_exact(
                        engine, query, parameters, restricted
                    ),
                    parameters,
                )
            )
        # and every binding keeps tracking the graph afterwards
        churn(graph, people, edges, rng)
        for view, parameters in views:
            assert_tracks(engine, view, query, parameters, name)

    @pytest.mark.parametrize("name", ["left", "right", "fof", "composite"])
    def test_new_binding_registered_mid_batch(self, name):
        query, first, later = RESTRICTED_SHAPES[name]
        graph, people, edges = people_graph()
        engine = QueryEngine(graph)
        rng = random.Random(13)
        views = [(engine.register(query, parameters=first), first)]
        with engine.batch():
            churn(graph, people, edges, rng)
            # registration flushes the window, then replays restricted
            for parameters in later:
                views.append(
                    (engine.register(query, parameters=parameters), parameters)
                )
            churn(graph, people, edges, rng)
        for view, parameters in views:
            assert_tracks(engine, view, query, parameters, name)

    @pytest.mark.parametrize("mode", ["trails", "reachability"])
    def test_closure_restricts_left_rows_by_source(self, mode):
        query = (
            "MATCH (p:Person)-[:KNOWS*]->(f) WHERE p.name = $v "
            "RETURN DISTINCT p, f"
        )
        graph = PropertyGraph()
        people = [
            graph.add_vertex(labels=["Person"], properties={"name": f"p{i}"})
            for i in range(12)
        ]
        for i in range(11):  # a chain: no cycles, trails stay small
            graph.add_edge(people[i], people[i + 1], "KNOWS")
        engine = QueryEngine(graph, transitive_mode=mode)
        engine.register(query, parameters={"v": "p0"})
        layer = engine._incremental.input_layer
        before = layer.stats.replay_rows_scanned
        view = engine.register(query, parameters={"v": "p8"})
        scanned = layer.stats.replay_rows_scanned - before
        assert sorted(f for _, f in view.multiset()) == people[9:]
        # 12 left rows looked at, 3 closure rows produced — not all 66
        assert scanned == 12 + 3
        narrow, full = both_folds(layer, partition_of(view))
        assert narrow == full and len(narrow) == 3

    def test_partition_served_evaluate_agrees(self):
        query, first, later = RESTRICTED_SHAPES["right"]
        read = (
            "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.name = $v "
            "RETURN DISTINCT a"
        )
        graph, people, edges = people_graph()
        engine = QueryEngine(graph)
        engine.register(query, parameters=first)
        engine.register(query, parameters=later[0])
        churn(graph, people, edges, random.Random(17))
        for parameters in (first, later[0]):
            assert "binding-partition[" in engine.explain(read, parameters)
            served = engine.evaluate(read, parameters, use_views=True)
            direct = engine.evaluate(read, parameters, use_views=False)
            assert exact(served.multiset()) == exact(direct.multiset())

    def test_registration_work_is_bounded_by_the_restricted_side(self):
        """Binding N+1 on a live 2 000-row join: one scan of the Person
        memory plus the matches — the full fold cannot silently return."""
        graph = PropertyGraph()
        people = [
            graph.add_vertex(labels=["Person"], properties={"name": f"p{i}"})
            for i in range(100)
        ]
        for i, person in enumerate(people):
            for step in range(1, 21):
                graph.add_edge(person, people[(i + step) % 100], "KNOWS")
        query = RESTRICTED_SHAPES["left"][0]
        engine = QueryEngine(graph)
        for i in range(5):
            engine.register(query, parameters={"v": f"p{i}"})
        layer = engine._incremental.input_layer
        (entry,) = layer._param_nodes.values()
        predicate, calls = entry.node.predicate, []

        class Counting:  # replay hands state over in row form
            cols = predicate.cols

            @staticmethod
            def row(row, ctx):
                calls.append(row)
                return predicate.row(row, ctx)

        entry.node.predicate = Counting
        stats = layer.stats
        scanned, emitted = stats.replay_rows_scanned, stats.replay_rows_emitted
        hits = stats.binding_core_hits
        view = engine.register(query, parameters={"v": "p50"})
        assert len(view.multiset()) == 20
        assert stats.replay_rows_emitted - emitted == 20
        # the 100-slot name column, at most 100 index entries walked to
        # recover the hits' keys, the 20 matches — against 2 000 below
        assert 100 + 20 <= stats.replay_rows_scanned - scanned <= 2 * 100 + 20
        assert len(calls) == 20  # survivors only, not the 2 000-row core
        assert stats.binding_core_hits - hits == 1
        # the same registration as a full fold reads the whole join
        facade = partition_of(view)
        facade.restriction = ()
        scanned = stats.replay_rows_scanned
        layer.state_delta(facade)
        assert stats.replay_rows_scanned - scanned == 2000

    def test_binding_core_hits_count_reuse_not_first_builds(self):
        graph, *_ = people_graph()
        engine = QueryEngine(graph, collect_metrics=True)
        query = RESTRICTED_SHAPES["left"][0]
        stats = engine._incremental.input_layer.stats
        engine.register(query, parameters={"v": "p0"})
        assert stats.binding_core_hits == 0  # built the core
        engine.register(query, parameters={"v": "p1"})
        engine.register(query, parameters={"v": "p2"})
        engine.register(query, parameters={"v": "p1"})  # partition hit
        assert stats.binding_core_hits == 2
        snapshot = engine.metrics_snapshot()
        assert snapshot["repro_sharing_binding_core_hits"]["value"] == 2
        assert (
            snapshot["repro_sharing_replay_rows_scanned_total"]["value"]
            == stats.replay_rows_scanned
        )
        assert (
            snapshot["repro_sharing_replay_rows_emitted_total"]["value"]
            == stats.replay_rows_emitted
        )
        assert "repro_sharing_binding_core_hits = 2" in engine.explain(
            query, {"v": "p0"}
        )


# ---------------------------------------------------------------------------
# worklist prune(): same drops, same LRU order as scanning to a fixpoint
# ---------------------------------------------------------------------------


def fixpoint_prune(layer: SharedSubplanLayer) -> int:
    """Reference ``prune()``: rescan every cached subplan until nothing
    changes (what the layer did before the worklist)."""
    removed = 0
    cascade_orphans: set[int] = set()
    changed = True
    while changed:
        changed = False
        for key, entry in list(layer._subplans.items()):
            if layer._subplans.get(key) is not entry:
                continue
            if entry.refcount != 0 or entry.node.subscriber_count != 0:
                continue
            if key in layer._detached_lru:
                continue
            if layer.detached_cache_size > 0:
                layer._detached_lru[key] = None
                if id(entry.node) in cascade_orphans:
                    layer._detached_lru.move_to_end(key, last=False)
                layer.stats.detached_retained += 1
                while len(layer._detached_lru) > layer.detached_cache_size:
                    oldest, _ = layer._detached_lru.popitem(last=False)
                    cascade_orphans |= layer._drop_subplan(oldest)
                    layer.stats.detached_evicted += 1
                    removed += 1
                    changed = True
            else:
                cascade_orphans |= layer._drop_subplan(key)
                removed += 1
                changed = True
    layer._released.clear()
    layer.stats.pruned += removed
    return removed + SharedInputLayer.prune(layer)


#: overlapping chains (shared joins under differing tops) and parameterised
#: shapes, so one detach can cascade several levels and through a core
LIFECYCLE_POOL = [
    ("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c", None),
    ("MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c", None),
    ("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS n", None),
    ("MATCH (p:Post) RETURN DISTINCT p.lang AS lang", None),
    # a ⋈ of two shared ⋈s: dropping it orphans both at once
    (
        "MATCH (a:Person)-[:KNOWS]->(b:Person), (p:Post)-[:REPLY]->(c:Comm) "
        "RETURN a, c",
        None,
    ),
    (PARAM_QUERIES[0], {"lang": "en"}),
    (PARAM_QUERIES[0], {"lang": "de"}),
    (PARAM_QUERIES[2], {"lang": "en"}),
    (PARAM_QUERIES[2], {"lang": None}),
    (PARAM_QUERIES[3], {"lang": "hu"}),
]


def lifecycle_graph() -> PropertyGraph:
    rng = random.Random(3)
    graph = PropertyGraph()
    vertices, edges = [], []
    for _ in range(60):
        _random_op(rng, vertices, edges)(graph)
        vertices = list(graph.vertices())
        edges = list(graph.edges())
    return graph


def layer_state(engine: IncrementalEngine) -> dict:
    layer, stats = engine.input_layer, engine.input_layer.stats
    return {
        "subplans": list(layer._subplans),
        "lru": list(layer._detached_lru),
        "subplan_count": layer.subplan_count,
        "detached_count": layer.detached_count,
        "binding_nodes": layer.binding_node_count,
        "partitions": layer.binding_partition_count,
        "node_count": layer.node_count,
        "pruned": stats.pruned,
        "retained": stats.detached_retained,
        "evicted": stats.detached_evicted,
        "revived": stats.detached_revived,
        "memory_cells": engine.memory_cells(),
    }


class TestWorklistPrune:
    def engines(self, cache_size: int):
        worklist = IncrementalEngine(
            lifecycle_graph(), detached_cache_size=cache_size
        )
        reference = IncrementalEngine(
            lifecycle_graph(), detached_cache_size=cache_size
        )
        reference.input_layer.prune = types.MethodType(
            fixpoint_prune, reference.input_layer
        )
        return worklist, reference

    @pytest.mark.parametrize("cache_size", [0, 1, 3])
    def test_detach_order_permutations_match_the_fixpoint_sweep(
        self, cache_size
    ):
        pool = LIFECYCLE_POOL[:1] + LIFECYCLE_POOL[4:8]
        for order in itertools.permutations(range(len(pool))):
            worklist, reference = self.engines(cache_size)
            pairs = [
                tuple(
                    engine.register(query, parameters=parameters)
                    for engine in (worklist, reference)
                )
                for query, parameters in pool
            ]
            for index in order:
                for view in pairs[index]:
                    view.detach()
                assert layer_state(worklist) == layer_state(reference), order
            if cache_size == 0:
                assert worklist.input_layer.node_count == 0
                assert worklist.memory_cells() == 0

    @pytest.mark.parametrize("cache_size", [0, 2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_churn_matches_the_fixpoint_sweep(self, cache_size, seed):
        rng = random.Random(seed)
        worklist, reference = self.engines(cache_size)
        live: list[tuple] = []
        for _ in range(120):
            if live and rng.random() < 0.5:
                for view in live.pop(rng.randrange(len(live))):
                    view.detach()
            else:
                query, parameters = rng.choice(LIFECYCLE_POOL)
                live.append(
                    tuple(
                        engine.register(query, parameters=parameters)
                        for engine in (worklist, reference)
                    )
                )
            assert layer_state(worklist) == layer_state(reference)
        while live:
            for view in live.pop(rng.randrange(len(live))):
                view.detach()
            assert layer_state(worklist) == layer_state(reference)
        if cache_size == 0:
            assert worklist.input_layer.node_count == 0
            assert worklist.memory_cells() == 0

    @pytest.mark.parametrize("cache_size", [0, 2, 4])
    def test_one_sweep_over_many_releases_visits_in_adoption_order(
        self, cache_size
    ):
        """Several roots dying in one sweep enter the LRU in the order a
        scan of the cache would meet them, whatever the release order."""
        pool = LIFECYCLE_POOL[2:6]
        for order in itertools.permutations(range(len(pool))):
            worklist, reference = self.engines(cache_size)
            for engine in (worklist, reference):
                views = [
                    engine.register(query, parameters=parameters)
                    for query, parameters in pool
                ]
                for index in order:
                    views[index].network.disconnect_shared()
                engine.input_layer.prune()
            assert layer_state(worklist) == layer_state(reference), order
