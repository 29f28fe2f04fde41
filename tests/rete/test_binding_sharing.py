"""Cross-binding sharing: one parameterised query, many bindings.

The canonical "millions of users" workload registers the *same*
parameterised view once per user, differing only in the binding.  A
lone binding of a query shape keeps its pushed-down plan and exact
binding keys; once a second distinct binding registers, the engine moves
the shape's views onto plans with the parameterised σ lifted above a
binding-free core, cut over to one value-indexed
:class:`~repro.rete.nodes.unary.BindingIndexedSelectionNode` with one
output partition per binding.  The differential classes
hold every view to recomputation after every step (type-exact cells, and
each ``on_change`` log replaying to its view) — random streams, rollback
transactions, batched mode, and mid-stream register/detach across ≥3
distinct bindings — and the lifting-rule class pins when a plan lifts.
"""

import itertools
import logging
import random
import types

import pytest

from repro import PropertyGraph, QueryEngine
from repro.compiler.optimizer import built_plan
from repro.errors import GraphError
from repro.rete.engine import IncrementalEngine
from repro.rete.nodes.unary import SelectionPartitionNode
from repro.rete.sharing import SharingLayer, subplan_cache_key

from .oracle import ENGINE_OPTION_IDS, ENGINE_OPTIONS, OracleMirror
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


def register_all(mirror: OracleMirror, bindings=BINDINGS) -> None:
    for query in PARAM_QUERIES:
        for value in bindings:
            mirror.register(query, {"lang": value})


class TestBindingDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_recomputation(self, seed):
        mirror = OracleMirror(PropertyGraph())
        register_all(mirror)
        rng = random.Random(500 + seed)
        for _ in range(60):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            if rng.random() < 0.08:
                ops = [
                    _random_op(rng, vertices, edges)
                    for _ in range(rng.randint(1, 4))
                ]
                try:
                    with mirror.graph.transaction():
                        for op in ops:
                            op(mirror.graph)
                        raise _Abort()
                except (_Abort, GraphError):
                    pass
            else:
                _random_op(rng, vertices, edges)(mirror.graph)
            mirror.assert_consistent()

    @pytest.mark.parametrize("seed", range(2))
    def test_batched_transactions_match_recomputation(self, seed):
        rng = random.Random(600 + seed)
        mirror = OracleMirror(PropertyGraph(), batch_transactions=True)
        register_all(mirror)
        for _ in range(20):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            ops = [
                _random_op(rng, vertices, edges)
                for _ in range(rng.randint(1, 5))
            ]
            abort = rng.random() < 0.3
            try:
                with mirror.graph.transaction():
                    for op in ops:
                        op(mirror.graph)
                    if abort:
                        raise _Abort()
            except (_Abort, GraphError):
                pass
            mirror.assert_consistent()

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach_across_bindings(self, seed):
        """New bindings joining a live node (partition replay) stay exact."""
        rng = random.Random(700 + seed)
        mirror = OracleMirror(PropertyGraph())
        for value in BINDINGS[:2]:
            mirror.register(PARAM_QUERIES[0], {"lang": value})
        pool = [
            (query, {"lang": value})
            for query in PARAM_QUERIES
            for value in BINDINGS
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
                _random_op(rng, vertices, edges)(mirror.graph)
            mirror.assert_consistent()

    def test_mid_batch_register_of_new_binding_matches_recomputation(self):
        rng = random.Random(23)
        mirror = OracleMirror(PropertyGraph())
        graph = mirror.graph
        for value in BINDINGS[:2]:
            mirror.register(PARAM_QUERIES[0], {"lang": value})
        a = graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        b = graph.add_vertex(labels=["Person"], properties={"lang": "de"})
        graph.add_edge(a, b, "KNOWS")
        with mirror.engine.batch():
            for _ in range(8):
                _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
            for value in BINDINGS[2:]:
                mirror.register(PARAM_QUERIES[0], {"lang": value})
            for _ in range(8):
                _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
        mirror.assert_consistent()


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
        # "de" lifted "en" with it; "hu" joined the live node
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 3
        # the ⋈(©Person, ⇑KNOWS) core was built exactly once, and "en"'s
        # pushed-down chain left with the lift
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
        engine.register(PARAM_QUERIES[0], parameters={"lang": "de"})
        first = engine.register(PARAM_QUERIES[0], parameters={"lang": "en"})
        hits_before = layer.stats.subplan_hits
        twin = engine.register(PARAM_QUERIES[0], parameters={"lang": "en"})
        assert layer.stats.subplan_hits > hits_before
        assert layer.binding_partition_count == 2  # "de" and "en"
        assert twin.multiset() == first.multiset()

    def test_differently_named_parameters_share_one_node(self):
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
        # the lift rule keys bindings type-exactly too: the second binding
        # lifts the first, and each binding gets its own partition
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

    def test_profile_marks_the_shared_partition(self):
        graph, _ = self.graph_with_people()
        engine = IncrementalEngine(graph)
        view = engine.register(PARAM_QUERIES[0], parameters={"lang": "en"})
        engine.register(PARAM_QUERIES[0], parameters={"lang": "de"})
        # "en"'s lifted network built the node
        assert "BindingIndexedSelection (shared)" in view.profile()
        assert "SelectionPartition (shared)" in view.profile()


def pushed_down(view) -> bool:
    """Whether *view* was built from its query's pushed-down plan (which
    the engine builds narrowed)."""
    return view.network.plan is built_plan(view.compiled)


class TestLiftingRule:
    """A shape lifts when a second distinct binding registers, and stays
    lifted while it has views."""

    graph_with_people = TestBindingMechanics.graph_with_people

    def test_one_binding_keeps_the_pushed_down_plan(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        view = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        layer = mirror.engine._incremental.input_layer
        assert pushed_down(view)
        assert layer.binding_node_count == 0
        assert layer.binding_partition_count == 0
        mirror.graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        mirror.assert_consistent()

    def test_second_distinct_binding_lifts_the_first_too(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        first = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        production, rows = first.network.production, first.rows()
        fired: list = []
        first.on_change(fired.append)
        second = mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        layer = mirror.engine._incremental.input_layer
        assert not pushed_down(first) and not pushed_down(second)
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 2
        # the view kept its production node and contents; nothing fired
        assert first.network.production is production
        assert first.rows() == rows and fired == []
        # the pushed-down chain was dropped
        pushed = [
            subplan_cache_key(op, {"lang": "en"}) for op in first.compiled.plan.walk()
        ]
        assert not any(key and key[1] and key in layer._subplans for key in pushed)
        people = list(mirror.graph.vertices("Person"))
        late = mirror.graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        mirror.graph.add_edge(late, people[0], "KNOWS")
        mirror.assert_consistent()
        assert fired

    @pytest.mark.parametrize("batch_transactions", [False, True])
    def test_a_lift_inside_an_open_window_is_exact(self, batch_transactions):
        """The lift waits for the buffered changes to reach the pushed-down
        view, then moves it; the rest of the window reaches it lifted."""
        graph, people = self.graph_with_people()
        mirror = OracleMirror(graph, batch_transactions=batch_transactions)
        first = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        rng = random.Random(31)
        with mirror.engine.batch():
            late = graph.add_vertex(labels=["Person"], properties={"lang": "en"})
            graph.add_edge(late, people[2], "KNOWS")
            for _ in range(6):
                _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
            mirror.register(PARAM_QUERIES[0], {"lang": "de"})
            assert not pushed_down(first)
            graph.add_edge(people[0], late, "KNOWS")
            for _ in range(6):
                _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
        mirror.assert_consistent()

    def test_same_binding_twice_is_a_root_hit(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        first = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        layer = mirror.engine._incremental.input_layer
        nodes = layer.stats.subplan_nodes
        twin = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        assert pushed_down(twin)
        assert layer.stats.subplan_nodes == nodes  # cut over at the root
        assert twin.network.production is not first.network.production
        assert layer.binding_node_count == 0
        mirror.graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        mirror.assert_consistent()

    def test_new_binding_joins_the_live_node_after_the_first_leaves(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        layer = mirror.engine._incremental.input_layer
        (node,) = [entry.node for entry in layer._param_nodes.values()]
        mirror.detach(0)  # the first binding, lifted by the second
        hits = layer.stats.binding_core_hits
        third = mirror.register(PARAM_QUERIES[0], {"lang": "hu"})
        assert not pushed_down(third)
        assert layer.stats.binding_core_hits == hits + 1
        assert [entry.node for entry in layer._param_nodes.values()] == [node]
        assert layer.binding_partition_count == 2
        mirror.graph.add_vertex(labels=["Person"], properties={"lang": "hu"})
        mirror.assert_consistent()

    def test_twins_lift_together_onto_one_root(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        twins = [mirror.register(PARAM_QUERIES[0], {"lang": "en"}) for _ in range(2)]
        mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        layer = mirror.engine._incremental.input_layer
        nodes = layer.stats.subplan_nodes
        late_twin = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        assert layer.stats.subplan_nodes == nodes  # a root hit, lifted
        roots = {id(view.network._root) for view in twins + [late_twin]}
        assert not any(pushed_down(view) for view in mirror.views)
        assert len(roots) == 1
        assert layer.binding_partition_count == 2
        people = list(mirror.graph.vertices("Person"))
        late = mirror.graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        mirror.graph.add_edge(late, people[1], "KNOWS")
        mirror.assert_consistent()

    def test_a_live_twin_keeps_its_binding_counted(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        mirror.detach(0)
        second = mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        assert not pushed_down(second) and not pushed_down(mirror.views[0])
        assert mirror.engine._incremental.input_layer.binding_node_count == 1
        mirror.graph.add_vertex(labels=["Person"], properties={"lang": "de"})
        mirror.assert_consistent()

    def test_a_lifted_shape_stays_lifted_down_to_one_binding(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        mirror.detach(1)
        twin = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        assert not pushed_down(twin)
        assert twin.network._root is mirror.views[0].network._root
        mirror.graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        mirror.assert_consistent()

    def test_a_shape_whose_views_all_left_starts_over(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        engine = mirror.engine._incremental
        mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        mirror.detach(1)
        mirror.detach(0)
        assert engine._live_bindings == {}
        assert engine._lifted_shapes == set()
        assert engine.input_layer.binding_node_count == 0
        fresh = mirror.register(PARAM_QUERIES[0], {"lang": "hu"})
        assert pushed_down(fresh)
        assert engine.input_layer.binding_node_count == 0
        mirror.graph.add_vertex(labels=["Person"], properties={"lang": "hu"})
        mirror.assert_consistent()

    def test_shapes_are_counted_apart(self):
        graph, _ = self.graph_with_people()
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        mirror = OracleMirror(graph)
        mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        mirror.register(PARAM_QUERIES[0], {"lang": "de"})
        other = mirror.register(PARAM_QUERIES[1], {"lang": "de"})
        assert pushed_down(other)
        assert mirror.engine._incremental.input_layer.binding_node_count == 1
        mirror.graph.add_vertex(labels=["Post"], properties={"lang": "de"})
        mirror.assert_consistent()

    def test_queries_over_one_selection_count_each_other(self):
        """Two queries that differ only above their parameterised σ share
        its binding-indexed node, so their bindings count together."""
        mirror = OracleMirror(self.graph_with_people()[0])
        counted = (
            "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.lang = $lang "
            "RETURN b, count(*) AS n"
        )
        first = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        second = mirror.register(counted, {"lang": "de"})
        third = mirror.register(counted, {"lang": "en"})
        layer = mirror.engine._incremental.input_layer
        assert not any(pushed_down(view) for view in (first, second, third))
        assert layer.binding_node_count == 1
        assert layer.binding_partition_count == 2  # "en" is one partition
        joins = [
            entry
            for entry in layer._subplans.values()
            if type(entry.node).__name__ == "JoinNode"
        ]
        assert len(joins) == 1
        people = list(mirror.graph.vertices("Person"))
        late = mirror.graph.add_vertex(labels=["Person"], properties={"lang": "de"})
        mirror.graph.add_edge(late, people[0], "KNOWS")
        mirror.assert_consistent()

    def test_bindings_differing_in_one_parameter_lift(self):
        graph = PropertyGraph()
        for lang, score in (("en", 1), ("en", 2), ("de", 1)):
            graph.add_vertex(
                labels=["Post"], properties={"lang": lang, "score": score}
            )
        mirror = OracleMirror(graph)
        query = "MATCH (p:Post) WHERE p.lang = $lang AND p.score = $score RETURN p"
        first = mirror.register(query, {"lang": "en", "score": 1})
        second = mirror.register(query, {"lang": "en", "score": 2})
        assert not pushed_down(first) and not pushed_down(second)
        assert mirror.engine._incremental.input_layer.binding_partition_count == 2
        mirror.graph.add_vertex(
            labels=["Post"], properties={"lang": "en", "score": 2}
        )
        mirror.assert_consistent()

    def test_a_query_without_parameters_has_no_shape(self):
        mirror = OracleMirror(self.graph_with_people()[0])
        view = mirror.register(
            "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.lang = 'en' RETURN a, b"
        )
        assert pushed_down(view)
        assert view._shape is None
        assert mirror.engine._incremental._live_bindings == {}
        mirror.assert_consistent()

    @pytest.mark.parametrize("options", ENGINE_OPTIONS, ids=ENGINE_OPTION_IDS)
    def test_the_rule_holds_under_every_engine_option(self, options):
        graph, _ = self.graph_with_people()
        mirror = OracleMirror(graph, **options)
        first = mirror.register(PARAM_QUERIES[0], {"lang": "en"})
        assert pushed_down(first)
        for query in PARAM_QUERIES:
            for value in ("en", "de", "hu"):
                mirror.register(query, {"lang": value})
        assert not any(pushed_down(view) for view in mirror.views)
        layer = mirror.engine._incremental.input_layer
        # the projection and the aggregate over p.lang = $lang lift onto
        # one binding-indexed σ
        assert layer.binding_node_count == len(PARAM_QUERIES) - 1
        rng = random.Random(77)
        for _ in range(30):
            vertices = list(mirror.graph.vertices())
            edges = list(mirror.graph.edges())
            if rng.random() < 0.1:
                ops = [_random_op(rng, vertices, edges) for _ in range(3)]
                try:
                    with mirror.graph.transaction():
                        for op in ops:
                            op(mirror.graph)
                        raise _Abort()
                except (_Abort, GraphError):
                    pass
            else:
                _random_op(rng, vertices, edges)(mirror.graph)
            mirror.assert_consistent()

    @pytest.mark.parametrize("seed", range(3))
    def test_lifts_follow_the_live_bindings_through_churn(self, seed):
        """Random register/detach: a shape lifts when a second distinct
        binding registers and stays lifted until its views are gone, and
        the engine's live-binding table always matches its live views."""
        rng = random.Random(300 + seed)
        graph = PropertyGraph()
        for lang in ("en", "de", "hu"):
            graph.add_vertex(labels=["Person"], properties={"lang": lang})
            graph.add_vertex(labels=["Post"], properties={"lang": lang})
        mirror = OracleMirror(graph)
        engine = mirror.engine._incremental
        # the σ each query shares: the projection and the aggregate over
        # (p:Post) WHERE p.lang = $lang count each other's bindings
        selection = dict(zip(PARAM_QUERIES, ("knows", "post", "reply", "post")))
        lifted: set[str] = set()
        pool = [(query, value) for query in PARAM_QUERIES for value in BINDINGS[:4]]
        for _ in range(40):
            if mirror.views and rng.random() < 0.4:
                index = rng.randrange(len(mirror.views))
                query = mirror.registered[index][0]
                mirror.detach(index)
                if not any(
                    selection[registered] == selection[query]
                    for registered, _ in mirror.registered
                ):
                    lifted.discard(selection[query])
            else:
                query, value = pool[rng.randrange(len(pool))]
                others = {
                    parameters["lang"]
                    for registered, parameters in mirror.registered
                    if selection[registered] == selection[query]
                }
                mirror.register(query, {"lang": value})
                if others - {value}:
                    lifted.add(selection[query])
            for (query, _), view in zip(mirror.registered, mirror.views):
                assert pushed_down(view) == (selection[query] not in lifted)
            table = {
                (structure, binding): count
                for structure, live in engine._live_bindings.items()
                for binding, count in live.items()
            }
            expected: dict = {}
            for view in mirror.views:
                expected[view._shape] = expected.get(view._shape, 0) + 1
            assert table == expected
            _random_op(rng, list(graph.vertices()), list(graph.edges()))(graph)
            mirror.assert_consistent()
        while mirror.views:
            mirror.detach(0)
        assert engine._live_bindings == {}
        assert engine._lifted_shapes == set()


class TestBindingLifecycle:
    def test_all_bindings_detached_drops_node_and_core(self):
        graph = PropertyGraph()
        graph.add_vertex(labels=["Person"], properties={"lang": "en"})
        engine = IncrementalEngine(graph)
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

    @pytest.mark.parametrize("keeper", [None, "hu"], ids=["pushed-down", "lifted"])
    def test_reregister_under_a_different_binding_is_not_served_stale(
        self, keeper
    ):
        """register → detach → re-register under a *different* binding.

        The new binding must never get the old binding's partition (or its
        old resolved subplan) — both keys carry the binding, so this pins
        that isolation for both plan forms: without a keeper both
        registrations keep the pushed-down plan and exact keys; beside a
        live keeper binding both lift into partitions.
        """
        graph = PropertyGraph()
        for lang in ("en", "en", "de"):
            graph.add_vertex(labels=["Post"], properties={"lang": lang})
        engine = IncrementalEngine(graph)
        if keeper is not None:
            engine.register(PARAM_QUERIES[1], parameters={"lang": keeper})
        first = engine.register(PARAM_QUERIES[1], parameters={"lang": "en"})
        assert pushed_down(first) == (keeper is None)
        assert len(first.rows()) == 2
        first.detach()
        second = engine.register(PARAM_QUERIES[1], parameters={"lang": "de"})
        # the detached binding no longer counts as live
        assert pushed_down(second) == (keeper is None)
        assert len(second.rows()) == 1
        assert second.multiset() == param_oracle(
            engine, PARAM_QUERIES[1], {"lang": "de"}
        )
        graph.add_vertex(labels=["Post"], properties={"lang": "de"})
        graph.add_vertex(labels=["Post"], properties={"lang": "en"})
        assert second.multiset() == param_oracle(
            engine, PARAM_QUERIES[1], {"lang": "de"}
        )

    def test_random_register_detach_cycles_leave_no_garbage(self):
        rng = random.Random(101)
        graph = PropertyGraph()
        for lang in ("en", "de", "hu"):
            graph.add_vertex(labels=["Person"], properties={"lang": lang})
            graph.add_vertex(labels=["Post"], properties={"lang": lang})
        engine = IncrementalEngine(graph)
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
        engine = IncrementalEngine(graph)
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
    """*bag* — a dict or a possibly unconsolidated batch — keyed
    type-exactly: ``==`` on rows conflates 1, True and 1.0, which is
    precisely what a restricted look-up could get wrong."""
    out: dict = {}
    for row, mult in bag.items():
        key = tuple((type(value).__name__, repr(value)) for value in row)
        out[key] = out.get(key, 0) + mult
    return {key: mult for key, mult in out.items() if mult}


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

    def test_closure_restricts_left_rows_by_source(self):
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
        engine = QueryEngine(graph)
        engine.register(query, parameters={"v": "p0"})  # pushed down
        engine.register(query, parameters={"v": "p1"})  # lifts both
        layer = engine._incremental.input_layer
        before = layer.stats.replay_rows_scanned
        view = engine.register(query, parameters={"v": "p8"})
        scanned = layer.stats.replay_rows_scanned - before
        assert sorted(f for _, f in view.multiset()) == people[9:]
        # 12 left rows looked at, 3 closure rows produced — not all 66
        assert scanned == 12 + 3
        narrow, full = both_folds(layer, partition_of(view))
        assert narrow == full and len(narrow) == 3

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

        class Counting:  # replay hands state over as a batch
            row = predicate.row

            @staticmethod
            def cols(columns, n, ctx):
                calls.append(n)
                return predicate.cols(columns, n, ctx)

        entry.node.predicate = Counting
        stats = layer.stats
        scanned, emitted = stats.replay_rows_scanned, stats.replay_rows_emitted
        hits = stats.binding_core_hits
        view = engine.register(query, parameters={"v": "p50"})
        assert len(view.multiset()) == 20
        assert stats.replay_rows_emitted - emitted == 20
        # the 100-slot name column, one index probe per distinct hit key
        # (at most one per match), the 20 matches — against 2 000 below
        assert 100 + 20 <= stats.replay_rows_scanned - scanned <= 100 + 20 + 20
        assert sum(calls) == 20  # survivors only, not the 2 000-row core
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
        assert stats.binding_core_hits == 0  # pushed down
        engine.register(query, parameters={"v": "p1"})  # p0's lift builds it
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
# worklist prune(): same drops as scanning to a fixpoint
# ---------------------------------------------------------------------------


def fixpoint_prune(layer: SharingLayer) -> int:
    """Reference ``prune()``: rescan every cached subplan until nothing
    changes (what the layer did before the worklist)."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for key, entry in list(layer._subplans.items()):
            if layer._subplans.get(key) is not entry:
                continue
            if entry.refcount != 0 or entry.node.subscriber_count != 0:
                continue
            layer._drop_subplan(key)
            removed += 1
            changed = True
    layer._released.clear()
    removed += layer._prune_inputs()
    layer.stats.pruned += removed
    return removed


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
        "subplan_count": layer.subplan_count,
        "binding_nodes": layer.binding_node_count,
        "partitions": layer.binding_partition_count,
        "node_count": layer.node_count,
        "pruned": stats.pruned,
        "memory_cells": engine.memory_cells(),
    }


class TestWorklistPrune:
    def engines(self, **options):
        worklist = IncrementalEngine(lifecycle_graph(), **options)
        reference = IncrementalEngine(lifecycle_graph(), **options)
        reference.input_layer.prune = types.MethodType(
            fixpoint_prune, reference.input_layer
        )
        return worklist, reference

    def test_detach_order_permutations_match_the_fixpoint_sweep(self):
        pool = LIFECYCLE_POOL[:1] + LIFECYCLE_POOL[4:8]
        for order in itertools.permutations(range(len(pool))):
            worklist, reference = self.engines()
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
            assert worklist.input_layer.node_count == 0
            assert worklist.memory_cells() == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_churn_matches_the_fixpoint_sweep(self, seed):
        rng = random.Random(seed)
        worklist, reference = self.engines()
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
        assert worklist.input_layer.node_count == 0
        assert worklist.memory_cells() == 0

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    @pytest.mark.parametrize("seed", range(3))
    def test_churn_between_writes_matches_the_fixpoint_sweep(self, seed, batched):
        """Register/detach churn interleaved with committed writes: each
        drop frees what the rescan frees from memories that hold data, and
        the surviving views stay equal to recomputation."""
        rng = random.Random(50 + seed)
        worklist, reference = self.engines(batch_transactions=batched)
        graphs = (worklist.graph, reference.graph)
        live: list[tuple] = []
        for _ in range(60):
            roll = rng.random()
            if live and roll < 0.3:
                _, _, views = live.pop(rng.randrange(len(live)))
                for view in views:
                    view.detach()
            elif roll < 0.6:
                query, parameters = rng.choice(LIFECYCLE_POOL)
                views = tuple(
                    engine.register(query, parameters=parameters)
                    for engine in (worklist, reference)
                )
                live.append((query, parameters, views))
            else:
                vertices = list(graphs[0].vertices())
                edges = list(graphs[0].edges())
                ops = [
                    _random_op(rng, vertices, edges) for _ in range(rng.randint(1, 3))
                ]
                for graph in graphs:
                    try:
                        with graph.transaction():
                            for op in ops:
                                op(graph)
                    except GraphError:
                        pass
            assert layer_state(worklist) == layer_state(reference)
        for query, parameters, (view, _) in live:
            assert view.multiset() == param_oracle(worklist, query, parameters)

    @pytest.mark.parametrize(
        "query, parameters", LIFECYCLE_POOL, ids=range(len(LIFECYCLE_POOL))
    )
    def test_a_detached_subplan_is_rebuilt_not_revived(self, query, parameters):
        """Nothing outlives its last view: detaching leaves an empty layer,
        and registering again builds fresh nodes into the same state."""
        engine = IncrementalEngine(lifecycle_graph())
        first = engine.register(query, parameters=parameters)
        state = layer_state(engine)
        old_nodes = list(first.network.nodes())
        first.detach()
        layer = engine.input_layer
        assert (layer.subplan_count, layer.node_count) == (0, 0)
        assert engine.memory_cells() == 0
        second = engine.register(query, parameters=parameters)
        assert not any(
            new is old for new in second.network.nodes() for old in old_nodes
        )
        again = layer_state(engine)
        assert again.pop("pruned") > state.pop("pruned")
        assert again == state
        assert second.multiset() == param_oracle(engine, query, parameters)

    def test_one_sweep_over_many_releases_matches_the_fixpoint_sweep(self):
        """Several roots dying in one sweep drop what a rescan of the cache
        drops, whatever the release order."""
        pool = LIFECYCLE_POOL[2:6]
        for order in itertools.permutations(range(len(pool))):
            worklist, reference = self.engines()
            for engine in (worklist, reference):
                views = [
                    engine.register(query, parameters=parameters)
                    for query, parameters in pool
                ]
                for index in order:
                    views[index].network.disconnect_shared()
                engine.input_layer.prune()
            assert layer_state(worklist) == layer_state(reference), order
