"""What the graph store leaves for the cyclic garbage collector to walk.

Counts only, no timings: after ``gc.collect()`` no edge record, property
dict or one-edge star of a railway graph is tracked, and the tracked
containers the store holds are bounded by the ≥ 2-edge stars, the index
sets and the distinct label sets.
"""

import gc

from repro.workloads.trainbenchmark import generate_railway

CONTAINERS = (dict, set, frozenset, tuple, list)


def tracked_containers(root) -> int:
    """Tracked containers reachable from *root* through containers."""
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not isinstance(obj, CONTAINERS):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(obj.values() if isinstance(obj, dict) else obj)
        if isinstance(obj, dict):
            stack.extend(obj)
    return count


def test_railway_store_is_mostly_untracked():
    graph = generate_railway(routes=40).graph
    gc.collect()
    assert graph.edge_count > 1000
    assert not any(gc.is_tracked(record) for record in graph._edges.values())
    for table in (graph._vprops, graph._eprops):
        assert not any(gc.is_tracked(props) for props in table.values())
    stars = [
        star
        for adjacency in (graph._out, graph._in)
        for by_vertex in adjacency.values()
        for star in by_vertex.values()
    ]
    assert not any(gc.is_tracked(star) for star in stars if type(star) is int)
    multi = sum(type(star) is set for star in stars)
    assert multi < len(stars) // 2  # most stars hold one edge

    store = {
        name: value
        for name, value in vars(graph).items()
        if name not in ("_listeners", "_tx_listeners")
    }
    index_sets = (
        len(graph._label_index)
        + len(graph._type_index)
        + sum(len(bucket) for bucket in graph._property_indexes.values())
    )
    # the constant covers the store's top-level tables, the per-type star
    # dicts (two per edge type) and the dict gathering them here
    constant = 16 + 2 * len(graph._type_index)
    bound = multi + index_sets + len(graph._label_sets) + constant
    assert tracked_containers(store) <= bound
