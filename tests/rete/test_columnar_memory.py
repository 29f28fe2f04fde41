"""Columnar node memories: differential oracle against the row-dict path.

``columnar_memories=True`` (the default) re-homes the counting-linear
node memories — join/antijoin/outer-join indexes and the binding tier's
value indexes — onto :class:`~repro.rete.deltas.ColumnStore`, a
column-backed keyed bag whose key cells are stored once per distinct
key, and routes transition-sensitive count-map keys (δ, γ, ⋈*,
production) through one engine-wide :class:`~repro.rete.deltas.RowInterner`.
All of that must be *invisible*: the mirror class here drives identical
random streams through a column-memory engine and its
``columnar_memories=False`` baseline (the exact PR 1–9 row-dict path)
and requires identical per-view contents and change logs throughout —
across per-event and batched maintenance, rollback transactions, process
sharding, binding-tier sharing, columnar and row deltas, and mid-stream
register/detach.  Mechanics classes pin the store itself (row-dict
write/read equivalence, free-list reuse, accounting) and the interner
(refcounts, type-exactness, teardown).
"""

import random

import pytest

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.rete.deltas import (
    ColumnStore,
    RowInterner,
    index_cells,
    index_insert,
    index_size,
    index_update,
)

from .test_columnar import LANGS, PARAM_QUERIES, QUERIES, _columnar_op, oracle
from .test_sharing import _Abort


class MemoryMirrorPair:
    """A column-memory engine and its row-dict baseline, fed identically."""

    def __init__(self, **flags):
        self.graphs = (PropertyGraph(), PropertyGraph())
        self.engines = (
            QueryEngine(self.graphs[0], columnar_memories=True, **flags),
            QueryEngine(self.graphs[1], columnar_memories=False, **flags),
        )
        self.registered: list[tuple[str, dict | None]] = []
        self.views: list[tuple] = []
        self.logs: list[tuple] = []

    def close(self) -> None:
        for engine in self.engines:
            engine.shutdown()

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
                    binding["score"] = 1
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


#: the outer-join query exercises the dissolved right-count map
#: (``ColumnStore.key_weight``) — not part of the shared corpus
OPTIONAL_QUERY = (
    "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c"
)


class TestColumnarMemoryDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_row_dict_baseline(self, seed):
        pair = MemoryMirrorPair()
        pair.register_all()
        pair.register(OPTIONAL_QUERY)
        _drive(pair, random.Random(1300 + seed))

    @pytest.mark.parametrize(
        "flags",
        [
            {"columnar_deltas": False},
            {"route_events": False},
            {"share_subplans": False},
            {"share_across_bindings": False},
            {"batch_transactions": True},
            {"batch_transactions": True, "columnar_deltas": False},
            {"batch_transactions": True, "share_across_bindings": False},
            {"workers": 2},
            {"workers": 2, "batch_transactions": True},
        ],
        ids=lambda flags: ",".join(f"{k}={v}" for k, v in flags.items()),
    )
    def test_flag_matrix_matches_row_dict_baseline(self, flags):
        """Column memories compose with every existing ablation flag —
        including row deltas folding into column stores and the sharded
        tier replicating the flag into worker processes."""
        pair = MemoryMirrorPair(**flags)
        try:
            pair.register_all()
            pair.register(OPTIONAL_QUERY)
            _drive(pair, random.Random(64), operations=30, oracle_every=10)
        finally:
            pair.close()

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach(self, seed):
        """Late joiners replay shared state (always row-form) into column
        stores; detach releases interned rows without disturbing twins."""
        rng = random.Random(1400 + seed)
        pair = MemoryMirrorPair()
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
        """Shared-node replay out of column stores must hand late twins
        the same row-form contents the row-dict baseline replays."""
        rng = random.Random(11)
        pair = MemoryMirrorPair()
        pair.register_all()
        pair.register(OPTIONAL_QUERY)
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

    def test_accounting_keeps_meaning_across_representations(self):
        """memory_size counts entries and stays identical both ways;
        memory_cells counts stored fields, so the columnar number may
        only shrink (key dedup), never grow."""
        pair = MemoryMirrorPair()
        pair.register_all()
        pair.register(OPTIONAL_QUERY)
        rng = random.Random(21)
        for _ in range(40):
            vertices = list(pair.graphs[0].vertices())
            edges = list(pair.graphs[0].edges())
            pair.apply(_columnar_op(rng, vertices, edges))
        columnar, baseline = pair.engines
        assert columnar.memory_size() == baseline.memory_size()
        assert 0 < columnar.memory_cells() <= baseline.memory_cells()

    def test_detaching_every_view_empties_the_intern_pool(self):
        """dispose() releases each node's interned rows — after the last
        view detaches the engine-wide pool must be empty, or refcounts
        leaked somewhere in the fold/teardown paths."""
        graph = PropertyGraph()
        engine = QueryEngine(graph, detached_cache_size=0)
        incremental = engine._incremental
        assert incremental.interner is not None
        views = [engine.register(query) for query in QUERIES]
        rng = random.Random(31)
        for _ in range(30):
            vertices = list(graph.vertices())
            edges = list(graph.edges())
            _columnar_op(rng, vertices, edges)(graph)
        assert len(incremental.interner) > 0
        for view in views:
            view.detach()
        assert len(incremental.interner) == 0


class TestColumnStore:
    def _mirror(self, seed, key_cols=(0,), payload_cols=(1, 2), bulk=False):
        """Drive identical folds through a ColumnStore and a row-dict
        index; return both."""
        rng = random.Random(seed)
        store = ColumnStore(key_cols, payload_cols)
        rows = [
            (rng.randrange(4), rng.randrange(3), rng.choice("abc"))
            for _ in range(300)
        ]
        keys = [tuple(row[i] for i in key_cols) for row in rows]
        mults = [rng.choice((-2, -1, 0, 1, 2)) for _ in rows]
        plain: dict = {}
        if bulk:
            store.insert_batch(keys, rows, mults)
        else:
            for key, row, mult in zip(keys, rows, mults):
                store.insert(key, row, mult)
        for key, row, mult in zip(keys, rows, mults):
            index_insert(plain, key, row, mult)
        return store, plain

    def _as_dict(self, store):
        return {
            key: dict(bucket.items()) for key, bucket in store.items()
        }

    @pytest.mark.parametrize("bulk", [False, True])
    def test_insert_matches_row_dict_index(self, bulk):
        store, plain = self._mirror(5, bulk=bulk)
        assert self._as_dict(store) == plain
        assert index_size(store) == index_size(plain)

    def test_index_update_dispatches_to_store(self):
        store = ColumnStore((0,), (1,))
        plain: dict = {}
        keys = [(1,), (2,), (1,)]
        rows = [(1, "a"), (2, "b"), (1, "a")]
        mults = [1, 1, -1]
        index_update(store, keys, rows, mults)
        index_update(plain, keys, rows, mults)
        assert self._as_dict(store) == plain

    def test_insert_columns_matches_row_form(self):
        rng = random.Random(9)
        rows = [(rng.randrange(3), rng.randrange(3)) for _ in range(100)]
        keys = [(row[0],) for row in rows]
        mults = [rng.choice((-1, 1)) for _ in rows]
        columns = [list(col) for col in zip(*rows)]
        by_columns = ColumnStore((0,), (1,))
        by_columns.insert_columns(keys, columns, mults)
        by_rows = ColumnStore((0,), (1,))
        by_rows.insert_batch(keys, rows, mults)
        assert self._as_dict(by_columns) == self._as_dict(by_rows)

    def test_cancelled_slots_go_on_the_free_list_and_get_reused(self):
        store = ColumnStore((0,), (1,))
        store.insert((1,), (1, "a"), 1)
        store.insert((1,), (1, "b"), 1)
        assert store.size() == 2 and not store.free
        store.insert((1,), (1, "a"), -1)
        assert store.size() == 1 and len(store.free) == 1
        store.insert((2,), (2, "c"), 1)
        assert store.size() == 2 and not store.free  # slot reused
        assert len(store.mults) == 2  # storage did not grow

    def test_emptied_buckets_leave_the_index(self):
        store = ColumnStore((0,), (1,))
        store.insert((1,), (1, "a"), 2)
        store.insert((1,), (1, "a"), -2)
        assert store.get((1,)) is None
        assert not store and store.size() == 0 and store.cells() == 0

    def test_key_weight_sums_bucket_multiplicities(self):
        store = ColumnStore((0,), (1,))
        assert store.key_weight((1,)) == 0
        store.insert((1,), (1, "a"), 2)
        store.insert((1,), (1, "b"), 3)
        store.insert((1,), (1, "a"), -1)
        assert store.key_weight((1,)) == 4

    def test_cells_counts_keys_once_per_distinct_key(self):
        store = ColumnStore((0, 1), (2,))
        for suffix in "abc":
            store.insert((1, 2), (1, 2, suffix), 1)
        # 3 payload cells + one 2-wide key vs 9 cells in the row path
        assert store.cells() == 5
        plain: dict = {}
        for suffix in "abc":
            index_insert(plain, (1, 2), (1, 2, suffix), 1)
        assert index_cells(plain) == 9

    def test_bucket_is_re_iterable_within_one_step(self):
        store = ColumnStore((0,), (1,))
        store.insert((1,), (1, "a"), 2)
        bucket = store.get((1,))
        assert list(bucket.items()) == [((1, "a"), 2)]
        assert list(bucket.items()) == [((1, "a"), 2)]  # fresh generator
        assert list(bucket.payloads()) == [(("a",), 2)]
        assert len(bucket) == 1 and bool(bucket)

    def test_key_payload_must_partition_the_width(self):
        with pytest.raises(ValueError):
            ColumnStore((0, 1), (1,))

    @pytest.mark.parametrize(
        "key_cols,payload_cols", [((0,), (1, 2)), ((0, 1), (2,)), ((2,), (0, 1))]
    )
    def test_select_is_a_filter_over_items(self, key_cols, payload_cols):
        """``select(pairs)`` == brute-force filtering of every stored row,
        whichever mix of key and payload columns the pairs name — on a
        store with freed and reused slots."""
        store, plain = self._mirror(21, key_cols, payload_cols)
        assert store.free  # the stream cancelled some slots
        pair_sets = [
            [(0, 2)],
            [(1, 1)],
            [(2, "b")],
            [(0, 1), (2, "a")],
            [(0, 3), (1, 0)],
            [(0, 0), (1, 2), (2, "c")],
            [(1, 1), (1, 2)],  # one column, two values: nothing passes
            [(2, "zzz")],
            [(2, None)],  # what freed slots hold
        ]
        for pairs in pair_sets:
            examined, buckets = store.select(pairs)
            got = {key: dict(bucket.items()) for key, bucket in buckets}
            want: dict = {}
            for key, bucket in plain.items():
                for row, mult in bucket.items():
                    if all(row[col] == value for col, value in pairs):
                        want.setdefault(key, {})[row] = mult
            assert got == want, pairs
            columns = {col for col, _ in pairs}
            if columns - set(key_cols):
                # one column scan + the index entries walked for the keys
                assert (
                    store.size() <= examined <= store.size() + len(store)
                ), pairs
            elif len(pairs) == len(columns) == len(key_cols):
                assert examined == 0, pairs  # direct index probe
            else:
                assert examined == len(store), pairs  # distinct keys

    def test_select_uses_python_equality(self):
        """A candidate set, not an answer: 1 == True == 1.0 all surface
        (the caller's predicate re-confirms), NaN only by identity."""
        nan = float("nan")
        store = ColumnStore((0,), (1,))
        for key, value in enumerate([1, True, 1.0, "1", nan, None]):
            store.insert((key,), (key, value), 1)
        _, buckets = store.select([(1, True)])
        assert [key for key, _ in buckets] == [(0,), (1,), (2,)]
        assert [key for key, _ in store.select([(1, nan)])[1]] == [(4,)]
        assert store.select([(1, float("nan"))])[1] == []
        assert [key for key, _ in store.select([(0, 3.0)])[1]] == [(3,)]

    def test_select_and_stored_hand_back_stored_objects(self):
        """A probe equal to — but typed differently from — a stored key
        must not lend its own objects to the rows it finds."""
        store = ColumnStore((0,), (1,))
        store.insert((1,), (1, "a"), 1)
        store.insert((4,), (4, 2), 1)
        for probe in (True, 1.0, 1):
            (key, bucket), = store.select([(0, probe)])[1]
            assert type(key[0]) is int
            assert [repr(row) for row, _ in bucket.items()] == ["(1, 'a')"]
            key, bucket = store.stored((probe,))
            assert type(key[0]) is int
            assert [repr(row) for row, _ in bucket.items()] == ["(1, 'a')"]
        (key, bucket), = store.select([(0, 4.0), (1, 2.0)])[1]
        assert [repr(row) for row, _ in bucket.items()] == ["(4, 2)"]
        assert store.stored((7,)) is None


class TestRowInterner:
    def test_refcounted_canonicalisation(self):
        interner = RowInterner()
        first = (1, "en")
        second = (1, "en")
        assert interner.intern(first) is first
        assert interner.intern(second) is first  # canonical survivor
        assert len(interner) == 1
        interner.release((1, "en"))
        assert len(interner) == 1  # one reference still out
        interner.release((1, "en"))
        assert len(interner) == 0

    def test_type_exact_pooling(self):
        """1 == True == 1.0 in Python; the pool must never hand a view a
        differently-typed equal tuple."""
        interner = RowInterner()
        as_int = interner.intern((7, 1))
        as_bool = interner.intern((7, True))
        as_float = interner.intern((7, 1.0))
        assert as_int == as_bool == as_float
        assert isinstance(as_int[1], int) and not isinstance(as_int[1], bool)
        assert as_bool[1] is True
        assert isinstance(as_float[1], float)
        assert len(interner) == 3

    def test_non_atomic_rows_pass_through_unpooled(self):
        interner = RowInterner()
        row = (1, [2, 3])
        assert interner.intern(row) is row
        assert len(interner) == 0
        interner.release(row)  # symmetric no-op

    def test_short_rows_pass_through_unpooled(self):
        """Pooling a 1-tuple costs more than sharing it saves — aggregate
        outputs churn through them on every transition."""
        interner = RowInterner()
        for row in ((), (7,)):
            assert interner.intern(row) is row
            interner.release(row)
        assert len(interner) == 0

    def test_release_all(self):
        interner = RowInterner()
        rows = [interner.intern((i, i)) for i in range(5)]
        interner.release_all(rows)
        assert len(interner) == 0

    def test_release_of_unknown_row_is_a_no_op(self):
        interner = RowInterner()
        interner.release((1, 2))
        assert len(interner) == 0
