"""Every shared interior node holds the bag its subtree computes.

A view's root is checked against recomputation everywhere; this module
checks the state *below* it.  For every live shared subplan and binding
partition in the sharing layer, the state targeted activation
reconstructs from the node's memories (``state_delta``, restricted for a
partition) must equal the interpreter's bag for that node's subtree — a
later registration populates from exactly that state.  The SNB
interactive views run under a write stream, per event and in transaction
batches, with both parameterised views registered under two bindings so
their shapes lift and hold one partition per binding.

CI runs this module under two ``PYTHONHASHSEED`` values: restricted
replay hands buckets over in slot order.  A ⋈ with a probe side answers
from its stored side and the graph, and is held to the same bag.
"""

import pytest

from repro import QueryEngine
from repro.eval import Interpreter
from repro.rete.sharing import BINDING_TIER, subplan_cache_key
from repro.workloads.snb import SNB_QUERIES, generate_snb, update_stream

#: the parameterised views, each registered under both bindings
BOUND = ("is1_profile", "ic1_fof")


def assert_interior_state(engine: QueryEngine) -> tuple[int, int]:
    """Check every live shared node; returns (subplans, partitions) seen."""
    layer = engine._incremental.input_layer
    graph = engine.graph
    seen = {}
    for view in engine.views:
        parameters = view.network.ctx.parameters
        # the plan the network was built from: narrowed, and lifted once
        # its shape has a second binding
        for op in view.network.plan.walk():
            for key in (
                subplan_cache_key(op, parameters),
                layer.partition_key(op, parameters),
            ):
                node = None if key is None else layer.subplan_lookup(key)
                if node is None:
                    continue
                held = dict(layer.state_delta(node).to_delta().items())
                expected = Interpreter(graph, parameters).evaluate(op)
                assert held == expected, (view.compiled.text, key)
                seen[key] = node
    # every live entry belongs to some view's plan, and was checked —
    # joins whose probe side is read from the graph among them
    assert set(seen) == set(layer._subplans)
    assert any(getattr(node, "probe", None) is not None for node in seen.values())
    partitions = sum(key[0] is BINDING_TIER for key in seen)
    return len(seen) - partitions, partitions


@pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
def test_shared_nodes_hold_their_subtrees_bags(batched):
    net = generate_snb(
        persons=12, forums=2, posts_per_forum=4, comments_per_post=2, seed=71
    )
    graph = net.graph
    engine = QueryEngine(graph, batch_transactions=batched)
    names = [graph.vertex_property(person, "name") for person in net.persons[:2]]
    for key, query in SNB_QUERIES.items():
        for name in names if key in BOUND else (None,):
            engine.register(query, None if name is None else {"name": name})
    subplans, partitions = assert_interior_state(engine)
    assert subplans > 0 and partitions == 2 * len(BOUND)
    for round_ in range(3):
        updates = update_stream(net, 12, seed=71 + round_)
        if batched:
            with graph.transaction():
                for _, apply in updates:
                    apply()
        else:
            for _, apply in updates:
                apply()
        assert assert_interior_state(engine) == (subplans, partitions)
