"""Column-backed node memories: every view ≡ recomputation.

Every counting-linear node memory — the ⋈, ▷ and ⟕ indexes — is a
:class:`~repro.rete.deltas.ColumnStore`, a column-backed keyed bag whose
key cells are stored once per distinct key; every transition-sensitive
memory (δ, γ, ⋈*, production) is a plain count map.  The check here is
against the specification, not a sibling implementation: one engine is
driven through random streams and, after every step, each view must equal
``evaluate(use_views=False)`` and each view's ``on_change`` log, replayed
onto the contents the view was registered with, must reproduce the view —
across per-event and batched maintenance, rollback transactions,
binding-tier sharing, columnar and row deltas, and mid-stream
register/detach.  Views are compared by ``(type name, repr)`` per cell on
a value pool Python equality does not conflate, and as ``==`` bags where
``1``/``True``/``1.0`` are in play.  The same check runs per node: ⋈, ▷
and ⟕ fed random batches in either delta form must hold what
recomputation over their two input bags gives (the Cypher front end never
emits ▷, so this is where its column loop is exercised).  Mechanics
classes pin the store itself against a dict fold (write/read equivalence,
free-list reuse, accounting), its batch fold against its one-occurrence
fold, slot for slot, and a bucket's form (a bare ``int`` at one slot, a
list at two or more) through every write path; the drain test pins that
detaching every view empties every memory and index.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine
from repro.errors import GraphError
from repro.rete.deltas import ColumnDelta, ColumnStore
from repro.rete.nodes.base import LEFT, RIGHT, Node
from repro.rete.nodes.join import AntiJoinNode, JoinNode, LeftOuterJoinNode

from ..conftest import PAPER_QUERY
from .oracle import ENGINE_OPTION_IDS, ENGINE_OPTIONS, OracleMirror, fold
from .test_columnar import LANGS, PARAM_QUERIES, QUERIES, SCORES, _columnar_op
from .test_populate import _Schema, as_columns, bucket_slots, dict_fold, exact
from .test_sharing import SP_EDGE_TYPES, SP_LABELS, SP_VALUES, _Abort

#: the outer-join query exercises the right count that lives in the store
#: (``ColumnStore.key_weight``), and the paper's query (unbounded ⋈*, path
#: returned) has label churn take ⋈* sources live and dead — neither is
#: part of the shared corpus
OPTIONAL_QUERY = (
    "MATCH (p:Post) OPTIONAL MATCH (p)-[:REPLY]->(c:Comm) RETURN p, c"
)
#: values Python equality conflates
HOSTILE = (1, True, 1.0)


def assert_slot_keys(store: ColumnStore) -> None:
    """Every live slot's key *is* its bucket's index key; free slots hold
    ``None``; the column is as long as the multiplicities; a bucket is an
    ``int`` exactly when it holds one slot."""
    assert len(store.slot_keys) == len(store.mults)
    live = set()
    for key, bucket in store.index.items():
        for pos in bucket_slots(bucket):
            assert store.slot_keys[pos] is key
            live.add(pos)
    assert live.isdisjoint(store.free)
    assert len(live) + len(store.free) == len(store.mults)
    assert all(store.slot_keys[pos] is None for pos in store.free)


def _bindings():
    for query, names in PARAM_QUERIES:
        for lang in LANGS[:3]:
            yield query, {"lang": lang, **({"score": 1} if "score" in names else {})}


def _hostile_op(rng: random.Random, vertices, edges):
    """The shared mutation pool, with ``1``/``True``/``1.0`` property values."""
    if vertices and rng.random() < 0.3:
        vertex = rng.choice(vertices)
        key, value = rng.choice(("lang", "score")), rng.choice(HOSTILE)
        return lambda g: g.set_vertex_property(vertex, key, value)
    return _columnar_op(rng, vertices, edges)


class RecomputationMirror(OracleMirror):
    """An :class:`~.oracle.OracleMirror` over a fixed random graph, with
    the shared mutation pool.  The graph starts with a dozen vertices and
    edges, so views populate over data before the stream begins."""

    def __init__(self, plain: bool = True, **flags):
        graph = PropertyGraph()
        rng = random.Random(5)
        for _ in range(12):
            graph.add_vertex(
                labels=rng.sample(SP_LABELS, rng.randint(1, 2)),
                properties={
                    "lang": rng.choice(SP_VALUES),
                    "score": rng.choice(SCORES),
                },
            )
        vertices = list(graph.vertices())
        for _ in range(16):
            graph.add_edge(
                rng.choice(vertices), rng.choice(vertices), rng.choice(SP_EDGE_TYPES)
            )
        super().__init__(graph, plain, **flags)
        self.op = _columnar_op if plain else _hostile_op

    def register_all(self) -> None:
        for query in QUERIES:
            self.register(query)
        for query, parameters in _bindings():
            self.register(query, parameters)
        self.register(OPTIONAL_QUERY)
        self.register(PAPER_QUERY)

    def step(self, rng: random.Random, rollback_chance: float = 0.08) -> None:
        """One mutation, or a transaction of a few that rolls back or
        commits (one batch under ``batch_transactions``)."""
        vertices = list(self.graph.vertices())
        edges = list(self.graph.edges())
        roll = rng.random()
        if roll >= rollback_chance + 0.25:
            self.op(rng, vertices, edges)(self.graph)
            return
        ops = [self.op(rng, vertices, edges) for _ in range(rng.randint(1, 4))]
        try:
            with self.graph.transaction():
                for op in ops:
                    op(self.graph)
                if roll < rollback_chance:
                    raise _Abort()
        except (_Abort, GraphError):
            pass


def _drive(mirror, rng, operations=60):
    for _ in range(operations):
        mirror.step(rng)
        mirror.assert_consistent()


class TestColumnarMemoryDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_matches_recomputation(self, seed):
        mirror = RecomputationMirror()
        mirror.register_all()
        _drive(mirror, random.Random(1300 + seed))

    @pytest.mark.parametrize("flags", ENGINE_OPTIONS, ids=ENGINE_OPTION_IDS)
    def test_flag_matrix_matches_recomputation(self, flags):
        """Column memories compose with every engine flag — including the
        per-event path's row deltas folding into column stores."""
        mirror = RecomputationMirror(**flags)
        mirror.register_all()
        _drive(mirror, random.Random(64), operations=30)

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    def test_hostile_values_match_recomputation_as_bags(self, batched):
        """``1``/``True``/``1.0`` properties through every memory kind;
        ``==``-equal values may keep a stored type, so bags compare by
        ``==`` here."""
        mirror = RecomputationMirror(plain=False, batch_transactions=batched)
        mirror.register_all()
        _drive(mirror, random.Random(77), operations=40)

    @pytest.mark.parametrize("seed", range(2))
    def test_mid_stream_register_and_detach(self, seed):
        """Late joiners replay shared state into column stores; detaching
        one view leaves its twins intact."""
        rng = random.Random(1400 + seed)
        mirror = RecomputationMirror()
        mirror.register(QUERIES[2])
        pool = [(query, None) for query in QUERIES] + list(_bindings())
        pool += [(OPTIONAL_QUERY, None), (PAPER_QUERY, None)]
        for _ in range(50):
            roll = rng.random()
            if roll < 0.15:
                mirror.register(*pool[rng.randrange(len(pool))])
            elif roll < 0.25 and len(mirror.views) > 1:
                mirror.detach(rng.randrange(len(mirror.views)))
            else:
                mirror.step(rng, rollback_chance=0)
            mirror.assert_consistent()

    def test_state_delta_replay_parity_after_stream(self):
        """Registering every query again after a long stream replays the
        shared column stores into fresh views equal to recomputation."""
        rng = random.Random(11)
        mirror = RecomputationMirror()
        mirror.register_all()
        for _ in range(40):
            mirror.step(rng, rollback_chance=0)
        for query, parameters in list(mirror.registered):
            mirror.register(query, parameters)
        mirror.assert_consistent()

    def test_accounting_depends_on_state_not_history(self):
        """memory_size counts entries and memory_cells stored fields: an
        engine maintained through churn (freed and reused slots) reports
        exactly what one populated over the final graph reports."""
        rng = random.Random(21)
        mirror = RecomputationMirror()
        mirror.register_all()
        for _ in range(40):
            mirror.step(rng, rollback_chance=0)
        fresh = QueryEngine(mirror.graph)
        for query, parameters in mirror.registered:
            fresh.register(query, parameters)
        assert mirror.engine.memory_cells() > 0
        assert fresh.memory_size() == mirror.engine.memory_size()
        assert fresh.memory_cells() == mirror.engine.memory_cells()

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    def test_detaching_every_view_drains_every_memory_and_index(self, batched):
        """After the last view detaches nothing is left: no memory cell,
        no shared node, no router registration, no catalog root — and
        detaching every view a second time changes nothing."""
        mirror = RecomputationMirror(batch_transactions=batched)
        mirror.register_all()
        rng = random.Random(31)
        for _ in range(30):
            mirror.step(rng, rollback_chance=0.2)
        engine = mirror.engine
        layer = engine._incremental.input_layer
        assert engine.memory_cells() > 0 and layer.node_count > 0
        views = list(mirror.views)
        lifecycle: list[str] = []
        engine._incremental.subscribe_views(lambda kind, view: lifecycle.append(kind))
        while mirror.views:
            mirror.detach(rng.randrange(len(mirror.views)))
        pruned = layer.stats.pruned
        for view in views:
            view.detach()  # a second detach is a no-op
        assert layer.stats.pruned == pruned
        assert lifecycle == ["detach"] * len(views)
        assert engine.memory_cells() == 0
        assert layer.node_count == 0
        assert len(layer.router) == 0
        assert engine.catalog._roots == {} and engine.catalog._root_keys == {}


class _Collector(Node):
    def __init__(self, width: int):
        super().__init__(_Schema(width))
        self.bag: dict = {}

    def apply(self, delta, side) -> None:
        fold(self.bag, delta.items())


def _spec(kind, left: dict, right: dict) -> dict:
    """⋈ / ▷ / ⟕ of two ``(key, value)`` bags, recomputed from scratch."""
    out: dict = {}
    for row, m in left.items():
        matches = [(other, m2) for other, m2 in right.items() if other[0] == row[0]]
        if kind is AntiJoinNode:
            fold(out, [] if matches else [(row, m)])
        elif matches:
            fold(out, [(row + other[1:], m * m2) for other, m2 in matches])
        elif kind is LeftOuterJoinNode:
            fold(out, [(row + (None,), m)])
    return out


class TestJoinFamilyAgainstRecomputation:
    """Each join-family node, fed random batches on both sides, as they
    come or consolidated, holds an output that recomputation over the two
    input bags reproduces after every batch."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "kind", [JoinNode, AntiJoinNode, LeftOuterJoinNode], ids=lambda k: k.__name__
    )
    def test_batches_in_either_form_match_recomputation(self, kind, seed):
        rng = random.Random(seed)
        if kind is AntiJoinNode:
            node, width = kind(_Schema(2), [0], [0]), 2
        else:
            node, width = kind(_Schema(3), [0], [0], [1]), 3
            if kind is LeftOuterJoinNode:
                node.configure_nulls(1)
        collector = _Collector(width)
        node.subscribe(collector)
        bags = ({}, {})
        for _ in range(40):
            side = rng.choice((LEFT, RIGHT))
            held, rows, mults = dict(bags[side]), [], []
            for _ in range(rng.randint(1, 6)):
                if held and rng.random() < 0.4:
                    row = rng.choice(sorted(held))
                    mult = -1
                else:
                    row, mult = (rng.randrange(3), rng.choice("ab")), rng.choice((1, 2))
                fold(held, [(row, mult)])
                rows.append(row)
                mults.append(mult)
            batch = ColumnDelta.from_rows(rows, mults, 2)
            if rng.random() >= 0.6:
                batch = ColumnDelta.from_delta(batch.to_delta(), 2)
            node.apply(batch, side)
            bags[side].clear()
            bags[side].update(held)
            assert exact(collector.bag) == exact(_spec(kind, *bags))


class TestColumnStore:
    def _mirror(self, seed, key_cols=(0,), payload_cols=(1, 2), bulk=False):
        """Drive identical folds through a ColumnStore and the reference
        dict fold; return both.  *bulk* feeds the store column batches —
        the first half bulk-loads the empty store, the second folds."""
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
            for part in (slice(0, 150), slice(150, None)):
                part_rows = rows[part]
                columns = [[row[i] for row in part_rows] for i in range(3)]
                store.insert_columns(keys[part], columns, mults[part])
        else:
            for key, row, mult in zip(keys, rows, mults):
                store.insert(key, row, mult)
        for key, row, mult in zip(keys, rows, mults):
            dict_fold(plain, key, row, mult)
        return store, plain

    def _as_dict(self, store):
        return {
            key: dict(bucket.items()) for key, bucket in store.items()
        }

    @pytest.mark.parametrize("bulk", [False, True])
    def test_insert_matches_row_dict_index(self, bulk):
        store, plain = self._mirror(5, bulk=bulk)
        assert self._as_dict(store) == plain
        assert store.size() == sum(len(bucket) for bucket in plain.values())

    def test_insert_columns_matches_row_form(self):
        rng = random.Random(9)
        rows = [(rng.randrange(3), rng.randrange(3)) for _ in range(100)]
        keys = [(row[0],) for row in rows]
        mults = [rng.choice((-1, 1)) for _ in rows]
        columns = [list(col) for col in zip(*rows)]
        by_columns = ColumnStore((0,), (1,))
        by_columns.insert_columns(keys, columns, mults)
        by_columns.insert_columns(keys, columns, mults)  # the fold path
        by_rows = ColumnStore((0,), (1,))
        for _ in range(2):
            for key, row, mult in zip(keys, rows, mults):
                by_rows.insert(key, row, mult)
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
        plain: dict = {}
        for suffix in "abc":
            store.insert((1, 2), (1, 2, suffix), 1)
            dict_fold(plain, (1, 2), (1, 2, suffix), 1)
        # 3 payload cells + one 2-wide key vs 9 cells stored row by row
        assert store.cells() == 5
        assert sum(len(row) for bucket in plain.values() for row in bucket) == 9

    def test_bucket_is_re_iterable_within_one_step(self):
        store = ColumnStore((0,), (1,))
        store.insert((1,), (1, "a"), 2)
        bucket = store.get((1,))
        assert list(bucket.items()) == [((1, "a"), 2)]
        assert list(bucket.items()) == [((1, "a"), 2)]  # fresh generator
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
        assert_slot_keys(store)
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
                # one column scan + one look at each distinct key among the
                # slots the payload pairs hit
                hit_keys = {
                    key
                    for key, bucket in plain.items()
                    for row in bucket
                    if all(
                        row[col] == value
                        for col, value in pairs
                        if col not in key_cols
                    )
                }
                assert (
                    store.size() <= examined <= store.size() + len(hit_keys)
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
        must not lend its own objects to the rows it finds; nor must an
        occurrence whose key is an equal ``(1.0,)`` that joined the bucket
        stored under ``(1,)`` — one at a time, by the batch fold or inside
        the first bulk load."""
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
        for path in ("insert", "batch fold", "load"):
            store = ColumnStore((0,), (1,))
            if path == "load":
                store.insert_columns([(1,), (1.0,)], [[1, 1.0], ["a", "b"]], [1, 1])
            elif path == "batch fold":
                store.insert_columns([(1,)], [[1], ["a"]], [1])
                store.insert_columns([(1.0,)], [[1.0], ["b"]], [1])
            else:
                store.insert((1,), (1, "a"), 1)
                store.insert((1.0,), (1.0, "b"), 1)
            assert_slot_keys(store)
            (key, bucket), = store.select([(1, "b")])[1]
            assert type(key[0]) is int, path
            assert [repr(row) for row, _ in bucket.items()] == ["(1, 'b')"]
            key, bucket = store.stored((1.0,))
            assert type(key[0]) is int, path
            assert len(bucket) == 2

    def test_select_examines_the_scan_and_the_hit_keys_only(self):
        """One hit among 5 000 distinct keys costs the column scan plus one
        index probe — not a walk over every key ahead of it."""
        store = ColumnStore((0,), (1,))
        n = 5000
        store.insert_columns(
            [(i,) for i in range(n)], [list(range(n)), ["x"] * (n - 1) + ["y"]],
            [1] * n,
        )
        examined, buckets = store.select([(1, "y")])
        assert [key for key, _ in buckets] == [(n - 1,)]
        assert examined == store.size() + 1


#: one NaN object, reused: it matches itself only by identity
FOLD_NAN = float("nan")
#: values Python equality conflates (1/True/1.0, 0.0/-0.0) or does not
#: reflect (NaN), beside plain ones
FOLD_VALUES = st.sampled_from([1, True, 1.0, 0.0, -0.0, FOLD_NAN, None, "a"])
#: (key columns, payload columns): one, two (permuted) and no payload columns
FOLD_SHAPES = [((0,), (1,)), ((1,), (2, 0)), ((0,), ())]


def fold_batches(width: int):
    """Batches of occurrences: a fresh ``(row, mult)`` — mult 0 included —
    or an integer naming an earlier occurrence to retract, which cancels
    slots and later lets an equal row revive them."""
    fresh = st.tuples(
        st.tuples(*[FOLD_VALUES] * width), st.sampled_from([1, -1, 2, 0])
    )
    step = st.one_of(fresh, st.integers(0, 1000))
    return st.lists(st.lists(step, min_size=1, max_size=12), min_size=2, max_size=8)


class TestFoldKernel:
    """``insert_columns``' batch fold leaves exactly the layout that
    folding the same occurrences one at a time with ``insert`` leaves:
    the same index keys (the very key objects, in order), buckets, cells
    (the very objects), multiplicities and free list."""

    @staticmethod
    def assert_same_layout(batched: ColumnStore, single: ColumnStore) -> None:
        assert len(batched.index) == len(single.index)
        for (key, bucket), (other, slots) in zip(
            batched.index.items(), single.index.items()
        ):
            assert key is other and type(bucket) is type(slots)
            assert bucket == slots
        for column, other in zip(batched.columns, single.columns):
            assert len(column) == len(other)
            assert all(cell is held for cell, held in zip(column, other))
        assert batched.mults == single.mults
        assert len(batched.slot_keys) == len(single.slot_keys)
        assert all(
            key is held for key, held in zip(batched.slot_keys, single.slot_keys)
        )
        assert batched.free == single.free

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from(FOLD_SHAPES), data=st.data())
    def test_batch_fold_is_the_one_occurrence_fold(self, shape, data):
        key_cols, payload_cols = shape
        width = len(key_cols) + len(payload_cols)
        batched = ColumnStore(key_cols, payload_cols)
        single = ColumnStore(key_cols, payload_cols)
        history: list[tuple[tuple, int]] = []
        for steps in data.draw(fold_batches(width)):
            rows, mults = [], []
            for step in steps:
                if isinstance(step, int):
                    if not history:
                        continue
                    row, mult = history[step % len(history)]
                    mult = -mult
                else:
                    row, mult = step
                rows.append(row)
                mults.append(mult)
                if mult:
                    history.append((row, mult))
            keys = [tuple(row[i] for i in key_cols) for row in rows]
            columns = [[row[i] for row in rows] for i in range(width)]
            if not single.mults:
                # both stores bulk-load the same first batch
                single.insert_columns(keys, columns, mults)
            else:
                for key, row, mult in zip(keys, rows, mults):
                    single.insert(key, row, mult)
            batched.insert_columns(keys, columns, mults)
            assert_slot_keys(batched)
            assert_slot_keys(single)
            self.assert_same_layout(batched, single)


class TestBucketForm:
    """A one-slot bucket is its slot's bare ``int`` in ``index``; a list
    appears with the second slot and collapses back at one, whichever
    write path moves the bucket.  Each step pins the exact index value."""

    @staticmethod
    def assert_bucket(store: ColumnStore, key: tuple, expected) -> None:
        held = store.index.get(key)
        assert type(held) is type(expected) and held == expected
        assert_slot_keys(store)

    #: (payload, multiplicity, index value after the step) — 1 → 2 → 3
    #: slots, then 3 → 2 → 1 → gone
    WALK = [
        ("a", 1, 0),
        ("b", 1, [0, 1]),
        ("c", 1, [0, 1, 2]),
        ("a", -1, [1, 2]),
        ("b", -1, 2),
        ("c", -1, None),
    ]

    @pytest.mark.parametrize("payload_cols", [(1,), (1, 2)], ids=["one", "two"])
    @pytest.mark.parametrize("batched", [False, True], ids=["insert", "fold"])
    def test_a_bucket_grows_and_shrinks_through_both_forms(
        self, payload_cols, batched
    ):
        """``insert`` runs the one-occurrence fold; one-row batches run the
        bulk load first and the batch fold (one- or two-column loop) after."""
        store = ColumnStore((0,), payload_cols)
        width = 1 + len(payload_cols)
        for payload, mult, expected in self.WALK:
            row = (1, payload, payload.upper())[:width]
            if batched:
                store.insert_columns([(1,)], as_columns([row], width), [mult])
            else:
                store.insert((1,), row, mult)
            self.assert_bucket(store, (1,), expected)
        assert not store and sorted(store.free) == [0, 1, 2]

    @pytest.mark.parametrize(
        "rows,mults,key,expected",
        [
            # three distinct payloads: the list stays as loaded
            ([(1, "a"), (1, "b"), (1, "c")], [1, 1, 1], (1,), [0, 1, 2]),
            # a repeat merges into its first slot: one slot left
            ([(1, "a"), (1, "a")], [1, 1], (1,), 0),
            # a cancelling pair beside a survivor
            ([(1, "a"), (1, "b"), (1, "a")], [1, 1, -1], (1,), 1),
            # the bucket's only pair cancels: the key leaves the index
            ([(1, "a"), (1, "a")], [1, -1], (1,), None),
            # emptied, then revived under a new key object, once or twice
            ([(1, "a"), (1, "a"), (True, "b")], [1, -1, 1], (True,), 2),
            (
                [(1, "a"), (1, "a"), (True, "b"), (1.0, "c")],
                [1, -1, 1, 1],
                (True,),
                [2, 3],
            ),
        ],
    )
    def test_bulk_load_merges_into_the_right_form(self, rows, mults, key, expected):
        store = ColumnStore((0,), (1,))
        store.insert_columns([(row[0],) for row in rows], as_columns(rows, 2), mults)
        self.assert_bucket(store, (1,), expected)
        if expected is not None:
            (stored,) = store.index
            assert stored == key and type(stored[0]) is type(key[0])

    def test_a_loaded_bucket_shrinks_by_later_folds(self):
        store = ColumnStore((0,), (1,))
        rows = [(1, "a"), (1, "b"), (1, "c")]
        store.insert_columns([(1,)] * 3, as_columns(rows, 2), [1, 1, 1])
        self.assert_bucket(store, (1,), [0, 1, 2])
        store.insert_columns([(1,)], as_columns([(1, "a")], 2), [-1])
        self.assert_bucket(store, (1,), [1, 2])
        store.insert((1,), (1, "b"), -1)
        self.assert_bucket(store, (1,), 2)
        store.insert_columns([(1,)], as_columns([(1, "c")], 2), [-1])
        self.assert_bucket(store, (1,), None)
