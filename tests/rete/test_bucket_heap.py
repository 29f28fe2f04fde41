"""Join memories do not hand the cyclic garbage collector a container per
distinct key.

A ``ColumnStore`` holds a one-slot bucket as that slot's bare ``int``,
which the collector does not track; only a bucket of two or more slots is
a (tracked) list.  Counts only — no timing: after a bulk load, after a
batch fold, and over an engine holding every Train Benchmark view, the
tracked index values are exactly the multi-slot buckets.
"""

import gc

import pytest

from repro import QueryEngine
from repro.rete.deltas import ColumnStore
from repro.workloads.trainbenchmark import QUERIES, generate_railway

N = 10_000


def tracked_buckets(store: ColumnStore) -> int:
    return sum(map(gc.is_tracked, store.index.values()))


def test_a_bulk_load_of_distinct_keys_tracks_no_bucket():
    store = ColumnStore((0,), (1,))
    store.insert_columns([(i,) for i in range(N)], [list(range(N)), ["x"] * N], [1] * N)
    assert len(store) == N and tracked_buckets(store) == 0


@pytest.mark.parametrize("payload_cols", [(1,), (1, 2)], ids=["one", "two"])
def test_a_batch_fold_of_distinct_keys_tracks_no_bucket(payload_cols):
    store = ColumnStore((0,), payload_cols)
    width = 1 + len(payload_cols)
    store.insert_columns([(-1,)], [[-1]] * width, [1])  # the bulk load
    store.insert_columns([(i,) for i in range(N)], [list(range(N))] * width, [1] * N)
    assert len(store) == N + 1 and tracked_buckets(store) == 0


def test_an_engine_tracks_only_multi_slot_buckets():
    engine = QueryEngine(generate_railway(routes=40).graph)
    stores = {}
    for query in QUERIES.values():
        for node in engine.register(query).network.nodes():
            for name in ("left_index", "right_index"):
                store = getattr(node, name, None)
                if isinstance(store, ColumnStore):
                    stores[id(store)] = store
    buckets = [bucket for store in stores.values() for bucket in store.index.values()]
    multi = [bucket for bucket in buckets if type(bucket) is list]
    assert all(len(bucket) >= 2 for bucket in multi)
    assert sum(map(gc.is_tracked, buckets)) == len(multi)
    # neither form is vacuous over this graph
    assert 0 < len(multi) < len(buckets)
