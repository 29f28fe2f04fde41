"""Populate, column to column: initial evaluation ≡ incremental maintenance.

``ReteNetwork.populate()`` evaluates a view once over the loaded graph:
input nodes build :class:`~repro.rete.deltas.ColumnDelta` batches straight
from the graph, join memories bulk-load (``ColumnStore.insert_columns`` on
a store that never held a slot) and ⋈ gathers its output column by
column.  The contract is that none of this is observable: a view
registered over a loaded graph must hold exactly what the same view holds
after being registered empty and maintained through the load — compared
type-exactly against recomputation, with equal memory accounting.

CI runs this module under two ``PYTHONHASHSEED`` values: nothing here may
depend on string hashing.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine
from repro.errors import UnsupportedForIncrementalError
from repro.rete.deltas import ColumnDelta, ColumnStore, Delta
from repro.rete.nodes.base import LEFT, RIGHT, Node
from repro.rete.nodes.input import VertexInputNode
from repro.rete.nodes.join import JoinNode
from repro.workloads.snb import SNB_QUERIES, generate_snb
from repro.workloads.trainbenchmark import QUERIES as TRAIN_QUERIES
from repro.workloads.trainbenchmark import generate_railway
from tests.compiler.test_generated_corpus import corpus_queries

REPO = Path(__file__).resolve().parents[2]

#: the per-binding view templates of the e2e ``bindings.churn`` workload
BINDING_TEMPLATES = {
    "friends": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE p.name = $name "
        "RETURN p.name AS person, f.name AS friend"
    ),
    "likes_by_author": (
        "MATCH (fan:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(auth:Person) "
        "WHERE auth.name = $name "
        "RETURN auth.name AS author, count(*) AS likes"
    ),
}

#: values Python equality conflates or that are not equal to themselves
HOSTILE = (1, True, 1.0, float("nan"), None)


def typed(value):
    return (type(value).__name__, repr(value))


def exact(bag) -> Counter:
    """*bag* keyed type-exactly, one entry per cell."""
    return Counter(
        {tuple(typed(value) for value in row): mult for row, mult in dict(bag).items()}
    )


def hostile_snb() -> PropertyGraph:
    net = generate_snb(persons=12, forums=2, posts_per_forum=5, comments_per_post=2)
    graph = net.graph
    # one author is named by an int, so `p.name = $name` under 1.0 selects
    # them and every view must hand back the stored int
    graph.set_vertex_property(net.persons[8], "name", 1)
    for i, person in enumerate(net.persons[1:6]):
        graph.set_vertex_property(person, "city", HOSTILE[i])
    recent = (True, False) + HOSTILE[:4] + (0,)
    for i, post in enumerate(net.posts):
        graph.set_vertex_property(post, "recent", recent[i % len(recent)])
    messages = net.posts + net.comments
    for i, message in enumerate(messages[::3]):
        graph.set_vertex_property(message, "lang", HOSTILE[i % len(HOSTILE)])
    return graph


def hostile_railway() -> PropertyGraph:
    # faults at 40 %: every constraint has violations to report
    model = generate_railway(
        routes=5, seed=4, error_rates=dict.fromkeys(TRAIN_QUERIES, 0.4)
    )
    graph = model.graph
    lengths = (0, False, 0.0, -0.0, -1, True, 1.0, float("nan"), None)
    for i, segment in enumerate(model.segments[::2]):
        graph.set_vertex_property(segment, "length", lengths[i % len(lengths)])
    for i, position in enumerate(model.switch_positions[::2]):
        graph.set_vertex_property(position, "position", HOSTILE[i % 3])
    for i, switch in enumerate(model.switches[1::3]):
        graph.set_vertex_property(switch, "currentPosition", HOSTILE[(i + 1) % 3])
    for i, semaphore in enumerate(model.semaphores[::2]):
        graph.set_vertex_property(semaphore, "signal", ("GO", 1, True, None)[i % 4])
    return graph


def load(source: PropertyGraph, target: PropertyGraph) -> None:
    """Copy *source* into the empty *target*, ids and all, one event each."""
    for vertex in sorted(source.vertices()):
        assert (
            target.add_vertex(
                labels=sorted(source.labels_of(vertex)),
                properties=source.vertex_properties(vertex),
            )
            == vertex
        )
    for edge in sorted(source.edges()):
        src, tgt = source.endpoints(edge)
        assert (
            target.add_edge(
                src, tgt, source.type_of(edge), source.edge_properties(edge)
            )
            == edge
        )


CASES = (
    [(f"snb.{name}", hostile_snb, query, {"name": "person-3"}) for name, query in SNB_QUERIES.items()]
    + [(f"train.{name}", hostile_railway, query, None) for name, query in TRAIN_QUERIES.items()]
    + [
        (f"binding.{name}:{binding!r}", hostile_snb, query, {"name": binding})
        for name, query, bindings in (
            ("friends", BINDING_TEMPLATES["friends"], ("person-3", 1.0)),
            ("likes_by_author", BINDING_TEMPLATES["likes_by_author"], ("person-5", 1.0)),
        )
        for binding in bindings
    ]
    + [("snb.is1_profile:1.0", hostile_snb, SNB_QUERIES["is1_profile"], {"name": 1.0})]
)


class TestPopulateEqualsIncremental:
    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    @pytest.mark.parametrize(
        "name,build,query,parameters", CASES, ids=[case[0] for case in CASES]
    )
    def test_register_then_load_equals_load_then_register(
        self, name, build, query, parameters, batched
    ):
        source = build()
        maintained = QueryEngine(PropertyGraph(), batch_transactions=batched)
        view_a = maintained.register(query, parameters)
        if batched:
            with maintained.batch():
                load(source, maintained._incremental.graph)
        else:
            load(source, maintained._incremental.graph)
        populated_graph = PropertyGraph()
        load(source, populated_graph)
        populated = QueryEngine(populated_graph, batch_transactions=batched)
        view_b = populated.register(query, parameters)
        oracle = exact(populated.evaluate(query, parameters, use_views=False).multiset())
        assert oracle, name  # every case has rows to get wrong
        assert exact(view_a.multiset()) == oracle, name
        assert exact(view_b.multiset()) == oracle, name
        assert view_a.memory_cells() == view_b.memory_cells()
        assert view_a.memory_size() == view_b.memory_size()
        assert maintained.memory_cells() == populated.memory_cells()
        assert maintained.memory_size() == populated.memory_size()


class TestRowPathGuard:
    def test_corpus_registers_without_the_row_join_loop(self, monkeypatch):
        """Populate hands every node columns (there is no row loop to
        reach) and never materialises a batch's row tuples."""

        def forbidden(*args, **kwargs):
            raise AssertionError("populate took a row path")

        monkeypatch.setattr(ColumnDelta, "rows", forbidden)
        graph = hostile_snb()
        for labels, value in ((["X"], 1), (["Y"], 2.0)):
            graph.add_vertex(labels=labels, properties={"v": value, "x": 1})
        parameters = {"name": "person-3", "param": 1, "other": None}
        engine = QueryEngine(graph)
        registered = 0
        for round_ in range(2):  # the second round replays shared state
            for query in corpus_queries():
                try:
                    view = engine.register(query, parameters)
                except UnsupportedForIncrementalError:
                    continue
                registered += 1
                if round_:
                    oracle = engine.evaluate(query, parameters, use_views=False)
                    assert dict(view.multiset()) == dict(oracle.multiset()), query
        assert registered >= 40


class TestMultiLabelScan:
    def test_scan_seeds_from_the_smallest_label(self):
        graph = PropertyGraph()
        for i in range(1000):
            graph.add_vertex(labels=["A"] + (["B"] if i % 333 == 0 else []))
        assert graph.label_count("A") == 1000 and graph.label_count("B") == 4
        engine = QueryEngine(graph)
        view = engine.register("MATCH (n:A:B) RETURN n")
        (node,) = [n for n in view.network.nodes() if isinstance(n, VertexInputNode)]
        visited = []
        labels_view = graph.labels_view
        graph.labels_view = lambda v: visited.append(v) or labels_view(v)
        state = node.state_delta()
        assert len(visited) <= 4
        assert sorted(state.columns[0]) == sorted(graph.vertices("B"))
        assert len(view.rows()) == 4

    def test_equal_buckets_tie_break_by_label_name(self):
        graph = PropertyGraph()
        for _ in range(3):
            graph.add_vertex(labels=["Zed", "Alpha"])
        graph.add_vertex(labels=["Zed"])
        graph.add_vertex(labels=["Alpha"])
        seeds = []
        vertices = graph.vertices
        graph.vertices = lambda label=None: seeds.append(label) or vertices(label)
        engine = QueryEngine(graph)
        view = engine.register("MATCH (n:Zed:Alpha) RETURN n")
        assert seeds[0] == "Alpha"
        assert len(view.rows()) == 3

    def test_scan_order_is_identical_across_hash_seeds(self):
        script = (
            "from repro import PropertyGraph, QueryEngine\n"
            "from repro.rete.nodes.input import VertexInputNode\n"
            "g = PropertyGraph()\n"
            "for i in range(300):\n"
            "    g.add_vertex(labels=['A', 'B'] if i % 7 else ['A', 'B', 'C'], "
            "properties={'x': i})\n"
            "view = QueryEngine(g).register('MATCH (n:A:B) RETURN n, n.x AS x')\n"
            "node = [n for n in view.network.nodes() if isinstance(n, VertexInputNode)][0]\n"
            "print(node.state_delta().columns)\n"
        )
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
            )  # fmt: skip
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1


# -- ColumnStore bulk load -------------------------------------------------

NAN = float("nan")
OTHER_NAN = float("nan")
VALUES = st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0, NAN, OTHER_NAN, None, "a"])
SHAPES = [((0,), ()), ((1,), (0,)), ((0,), (2, 1)), ((2, 0), (1,))]


def occurrences(width: int):
    return st.lists(
        st.tuples(
            st.tuples(*[VALUES] * width), st.sampled_from([-2, -1, 0, 1, 1, 2])
        ),
        max_size=40,
    ).map(
        # ±1 pairs of the same row so cancellations are common
        lambda items: items + [(row, -mult) for row, mult in items[::3]]
    )


def as_columns(rows, width):
    return [[row[i] for row in rows] for i in range(width)]


def store_contents(store: ColumnStore) -> Counter:
    """Index keys, rows and multiplicities, type-exactly."""
    return Counter(
        (
            tuple(map(typed, key)),
            tuple(map(typed, row)),
            mult,
        )
        for key, bucket in store.items()
        for row, mult in bucket.items()
    )


def bucket_slots(bucket) -> "tuple[int] | list[int]":
    """The slot positions of one ``ColumnStore.index`` value, checking its
    form: a one-slot bucket is that slot's bare ``int``, so a list always
    holds two slots or more."""
    if type(bucket) is int:
        return (bucket,)
    assert type(bucket) is list and len(bucket) >= 2, bucket
    return bucket


def assert_well_formed(store: ColumnStore) -> None:
    live = [p for bucket in store.index.values() for p in bucket_slots(bucket)]
    assert len(live) == len(set(live)) == store.size()
    assert sorted(live + store.free) == list(range(len(store.mults)))
    assert all(store.mults[p] for p in live)
    assert all(store.mults[p] == 0 for p in store.free)


def fold_each(store: ColumnStore, rows, mults) -> None:
    for row, mult in zip(rows, mults):
        store.insert(tuple(row[i] for i in store.key_cols), row, mult)


class TestBulkLoad:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        data=st.data(),
    )
    def test_bulk_load_equals_folding_one_by_one(self, shape, data):
        key_cols, payload_cols = shape
        width = len(key_cols) + len(payload_cols)
        first = data.draw(occurrences(width))
        later = data.draw(occurrences(width))
        stores = [ColumnStore(key_cols, payload_cols) for _ in range(2)]
        bulk, folded = stores
        rows = [row for row, _ in first]
        mults = [mult for _, mult in first]
        keys = [tuple(row[i] for i in key_cols) for row in rows]
        bulk.insert_columns(keys, as_columns(rows, width), mults)
        fold_each(folded, rows, mults)
        for stage in ("loaded", "later folds"):
            assert store_contents(bulk) == store_contents(folded), stage
            assert Counter(map(lambda k: tuple(map(typed, k)), bulk.index)) == Counter(
                map(lambda k: tuple(map(typed, k)), folded.index)
            )
            assert bulk.size() == folded.size() and bulk.cells() == folded.cells()
            for store in stores:
                assert_well_formed(store)
            rows = [row for row, _ in later]
            mults = [mult for _, mult in later]
            keys = [tuple(row[i] for i in key_cols) for row in rows]
            bulk.insert_columns(keys, as_columns(rows, width), mults)
            fold_each(folded, rows, mults)

    def test_merged_duplicates_free_slots_that_later_folds_reuse(self):
        store = ColumnStore((0,), (1,))
        rows = [(1, "a"), (1, "a"), (2, "b"), (1, "c"), (1, "c")]
        store.insert_columns(
            [(r[0],) for r in rows], as_columns(rows, 2), [1, 1, 1, 2, -2]
        )
        assert dict(store.get((1,)).items()) == {(1, "a"): 2}
        assert sorted(store.free) == [1, 3, 4] and store.size() == 2
        store.insert((3,), (3, "d"), 1)
        store.insert((3,), (3, "e"), 1)
        store.insert((3,), (3, "f"), 1)
        assert len(store.mults) == len(rows) and not store.free

    def test_a_revived_bucket_keeps_the_reviving_key(self):
        store = ColumnStore((0,), (1,))
        rows = [(1, "a"), (1, "a"), (True, "b")]
        store.insert_columns([(r[0],) for r in rows], as_columns(rows, 2), [1, -1, 1])
        ((key, bucket),) = store.items()
        assert key == (True,) and type(key[0]) is bool
        assert dict(bucket.items()) == {(True, "b"): 1}

    def test_zero_multiplicities_are_skipped(self):
        store = ColumnStore((0,), (1,))
        store.insert_columns([(1,), (2,)], [[1, 2], ["a", "b"]], [0, 0])
        assert not store.mults and not store
        store.insert_columns([(1,), (2,)], [[1, 2], ["a", "b"]], [0, 3])
        assert dict(store.get((2,)).items()) == {(2, "b"): 3}
        assert store.size() == 1 and not store.free


# -- gathered join output --------------------------------------------------


class Collector(Node):
    def __init__(self, schema):
        super().__init__(schema)
        self.received: list = []

    def apply(self, delta, side):
        self.received.append(delta)


class _Schema:
    def __init__(self, width):
        self.names = tuple(f"c{i}" for i in range(width))

    def __len__(self):
        return len(self.names)


#: (left width, right width, left key, right key, right extra)
JOIN_SHAPES = [
    (2, 2, [0], [0], [1]),
    (3, 4, [2, 0], [1, 3], [0, 2]),
    (1, 2, [0], [1], [0]),
]
KEY_VALUES = st.sampled_from([0, 1, 2, "k"])
CELLS = st.sampled_from([1, True, 1.0, NAN, None, "x", 0])


def join_batches(left_width, right_width, left_key, right_key):
    def batch(side):
        width = left_width if side == LEFT else right_width
        key = left_key if side == LEFT else right_key
        row = st.lists(CELLS, min_size=width, max_size=width)
        keys = st.lists(KEY_VALUES, min_size=len(key), max_size=len(key))

        def build(pairs):
            rows, mults = [], []
            for (cells, key_values), mult in pairs:
                for column, value in zip(key, key_values):
                    cells[column] = value
                rows.append(tuple(cells))
                mults.append(mult)
            return side, rows, mults

        return st.lists(
            st.tuples(st.tuples(row, keys), st.sampled_from([-1, 1, 2])),
            min_size=1,
            max_size=8,
        ).map(build)

    return st.lists(st.sampled_from([LEFT, RIGHT]).flatmap(batch), max_size=10)


def dict_fold(index: dict, key, row, mult) -> None:
    """One occurrence into a ``key → {row: mult}`` index, pruning zeros."""
    bucket = index.setdefault(key, {})
    count = bucket.get(row, 0) + mult
    if count:
        bucket[row] = count
    else:
        bucket.pop(row, None)
        if not bucket:
            del index[key]


class RowDictJoin(Node):
    """Reference ⋈: row-dict memories, one row tuple per occurrence."""

    def __init__(self, schema, left_key, right_key, right_extra):
        super().__init__(schema)
        self.left_key, self.right_key, self.extra = left_key, right_key, right_extra
        self.left_index: dict = {}
        self.right_index: dict = {}

    def apply(self, delta: ColumnDelta, side) -> None:
        rows, mults = delta.rows(), delta.mults
        if side == LEFT:
            keys = delta.key_column(self.left_key)
            probed, own = self.right_index, self.left_index
        else:
            keys = delta.key_column(self.right_key)
            probed, own = self.left_index, self.right_index
        out_rows, out_mults = [], []
        for key, row, mult in zip(keys, rows, mults):
            for other, m2 in probed.get(key, {}).items():
                left, right = (row, other) if side == LEFT else (other, row)
                out_rows.append(left + tuple(right[i] for i in self.extra))
                out_mults.append(mult * m2)
        for key, row, mult in zip(keys, rows, mults):
            dict_fold(own, key, row, mult)
        self.emit(ColumnDelta.from_rows(out_rows, out_mults, len(self.schema.names)))

    def memory_size(self) -> int:
        return sum(
            len(bucket)
            for index in (self.left_index, self.right_index)
            for bucket in index.values()
        )


class TestGatheredJoin:
    @settings(max_examples=120, deadline=None)
    @given(shape=st.sampled_from(JOIN_SHAPES), data=st.data())
    def test_gathered_output_equals_the_row_dict_loop(self, shape, data):
        left_width, right_width, left_key, right_key, extra = shape
        width = left_width + len(extra)
        nodes, collectors = [], []
        for kind in (JoinNode, RowDictJoin):
            node = kind(_Schema(width), left_key, right_key, extra)
            collector = Collector(node.schema)
            node.subscribe(collector)
            nodes.append(node)
            collectors.append(collector)
        batches = data.draw(join_batches(left_width, right_width, left_key, right_key))
        for side, rows, mults in batches:
            batch_width = left_width if side == LEFT else right_width
            for node in nodes:
                node.apply(ColumnDelta.from_rows(rows, mults, batch_width), side)
            gathered, looped = (c.received for c in collectors)
            assert len(gathered) == len(looped)
            if gathered:
                assert exact(gathered[-1].to_delta().items()) == exact(
                    looped[-1].to_delta().items()
                )
        for node in nodes:
            assert node.memory_size() == nodes[0].memory_size()

    def test_right_side_rows_carry_the_probe_key_cells(self):
        node = JoinNode(_Schema(3), [0], [0], [1])
        collector = Collector(node.schema)
        node.subscribe(collector)
        node.apply(ColumnDelta.from_rows([(1, "a"), (1, "b")], [1, 2], 2), LEFT)
        node.apply(ColumnDelta.from_rows([(1, "x"), (2, "y")], [3, 1], 2), RIGHT)
        (out,) = collector.received
        assert type(out) is ColumnDelta
        assert out.columns == [[1, 1], ["a", "b"], ["x", "x"]]
        assert out.mults == [3, 6]
        assert isinstance(out.to_delta(), Delta)
