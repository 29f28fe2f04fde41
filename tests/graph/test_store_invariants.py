"""Differential test of the graph store against a brute-force shadow model.

A seeded random stream of mutations (vertices and edges added and removed,
parallel edges and self-loops, label flips, property sets, detach deletes,
rolled-back transactions and ``copy()``) runs against a
:class:`PropertyGraph` and a plain-dict shadow of it.  After every step each
read is compared with what the shadow says, and the store's layout is
checked: a star is a bare ``int`` exactly when it holds one edge, a ``set``
holds two or more, no star is empty, and equal label sets are one object.
"""

import copy
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import DanglingEdgeError, InvalidValueError
from repro.graph import PropertyGraph
from repro.rete.batch import BatchAccumulator

REPO = Path(__file__).resolve().parents[2]
LABELS = ("A", "B", "C")
TYPES = ("R", "S", "T")


class Shadow:
    """The model: vertex → (labels, properties), edge → (s, t, type, props)."""

    def __init__(self):
        self.vertices: dict[int, tuple[set, dict]] = {}
        self.edges: dict[int, tuple[int, int, str, dict]] = {}

    def incident(self, vertex):
        return {e for e, (s, t, _, _) in self.edges.items() if vertex in (s, t)}


def check_reads(graph: PropertyGraph, shadow: Shadow) -> None:
    assert set(graph.vertices()) == set(shadow.vertices)
    assert {e: (s, t) for s, e, t in graph.edge_triples()} == {
        e: (s, t) for e, (s, t, _, _) in shadow.edges.items()
    }
    for edge_type in (None, *TYPES):
        expected = {
            (s, e, t)
            for e, (s, t, ty, _) in shadow.edges.items()
            if edge_type in (None, ty)
        }
        triples = list(graph.edge_triples(edge_type))
        assert len(triples) == len(expected) and set(triples) == expected
    for label in LABELS:
        members = {v for v, (labels, _) in shadow.vertices.items() if label in labels}
        assert set(graph.vertices(label)) == members
        assert set(graph.label_members(label)) == members
    for vertex, (labels, props) in shadow.vertices.items():
        assert graph.labels_of(vertex) == labels
        assert graph.vertex_properties(vertex) == props
        for edge_type in (None, *TYPES):
            mine = {
                e: (s, t)
                for e, (s, t, ty, _) in shadow.edges.items()
                if edge_type in (None, ty)
            }
            out = sorted(e for e, (s, _) in mine.items() if s == vertex)
            inc = sorted(e for e, (_, t) in mine.items() if t == vertex)
            both = sorted(e for e, (s, t) in mine.items() if vertex in (s, t))
            assert sorted(graph.out_edges(vertex, edge_type)) == out
            assert sorted(graph.in_edges(vertex, edge_type)) == inc
            assert sorted(graph.incident_edges(vertex, edge_type)) == both
        assert graph.degree(vertex) == sum(
            (s == vertex) + (t == vertex) for s, t, _, _ in shadow.edges.values()
        )
    for edge, (s, t, ty, props) in shadow.edges.items():
        assert graph.endpoints(edge) == (s, t)
        assert graph.type_of(edge) == ty
        assert graph.edge_properties(edge) == props


def check_layout(graph: PropertyGraph) -> None:
    for adjacency in (graph._out, graph._in):
        for stars in adjacency.values():
            for star in stars.values():
                if type(star) is int:
                    continue
                assert type(star) is set and len(star) >= 2
    for labels in graph._vertices.values():
        assert type(labels) is frozenset
        assert graph._label_sets[labels] is labels
    interned = {}
    for vertex in graph.vertices():
        labels = graph.labels_of(vertex)
        assert interned.setdefault(labels, labels) is labels
        assert graph.labels_view(vertex) is labels
    assert set(graph._vprops) == set(graph._vertices)
    assert set(graph._eprops) == set(graph._edges)


def step(graph: PropertyGraph, shadow: Shadow, rng: random.Random) -> None:
    vertices = sorted(shadow.vertices)
    edges = sorted(shadow.edges)
    roll = rng.random()
    if roll < 0.2 or not vertices:
        labels = set(rng.sample(LABELS, rng.randint(0, 2)))
        props = {"k": rng.randint(0, 3)} if rng.random() < 0.5 else {}
        vertex = graph.add_vertex(labels, props)
        shadow.vertices[vertex] = (labels, props)
    elif roll < 0.5:
        # few vertices, so parallel edges are common; s == t makes loops
        source, target = rng.choice(vertices), rng.choice(vertices)
        edge_type = rng.choice(TYPES)
        props = {"w": rng.randint(0, 3)} if rng.random() < 0.3 else {}
        edge = graph.add_edge(source, target, edge_type, props)
        shadow.edges[edge] = (source, target, edge_type, props)
    elif roll < 0.6 and edges:
        edge = rng.choice(edges)
        graph.remove_edge(edge)
        del shadow.edges[edge]
    elif roll < 0.7:
        vertex = rng.choice(vertices)
        label = rng.choice(LABELS)
        labels, _ = shadow.vertices[vertex]
        if label in labels:
            graph.remove_label(vertex, label)
            labels.discard(label)
        else:
            graph.add_label(vertex, label)
            labels.add(label)
    elif roll < 0.8:
        vertex = rng.choice(vertices)
        value = rng.choice((None, 1, 2, "x"))
        graph.set_vertex_property(vertex, "k", value)
        props = shadow.vertices[vertex][1]
        if value is None:
            props.pop("k", None)
        else:
            props["k"] = value
    elif roll < 0.85 and edges:
        edge = rng.choice(edges)
        value = rng.choice((None, 5))
        graph.set_edge_property(edge, "w", value)
        props = shadow.edges[edge][3]
        if value is None:
            props.pop("w", None)
        else:
            props["w"] = value
    else:
        vertex = rng.choice(vertices)
        incident = shadow.incident(vertex)
        if incident and rng.random() < 0.5:
            with pytest.raises(DanglingEdgeError):
                graph.remove_vertex(vertex)
            return
        graph.remove_vertex(vertex, detach=True)
        for edge in incident:
            del shadow.edges[edge]
        del shadow.vertices[vertex]


@pytest.mark.parametrize("seed", range(6))
def test_random_stream_matches_shadow(seed):
    rng = random.Random(seed)
    graph, shadow = PropertyGraph(), Shadow()
    for index in range(160):
        if index % 40 == 39:
            # a doomed transaction: its steps are compensated on exit
            before = copy.deepcopy(shadow)
            with pytest.raises(RuntimeError):
                with graph.transaction():
                    for _ in range(rng.randint(1, 6)):
                        step(graph, shadow, rng)
                    raise RuntimeError("roll back")
            shadow = before
        elif index % 50 == 49:
            clone = graph.copy()
            check_reads(clone, shadow)
            check_layout(clone)
            graph = clone
        else:
            step(graph, shadow, rng)
        check_reads(graph, shadow)
        check_layout(graph)
    # drain to zero: with every vertex gone no adjacency keeps a vertex key
    for vertex in sorted(shadow.vertices):
        graph.remove_vertex(vertex, detach=True)
    assert graph.vertex_count == graph.edge_count == 0
    for adjacency in (graph._out, graph._in):
        assert all(not stars for stars in adjacency.values())
    assert not graph._vprops and not graph._eprops


def read_orders(seed: int) -> list:
    """Every read's output, in the order the store hands it out."""
    rng = random.Random(seed)
    graph, shadow = PropertyGraph(), Shadow()
    for _ in range(200):
        step(graph, shadow, rng)
    orders = [list(graph.edge_triples())]
    orders += [list(graph.vertices(label)) for label in LABELS]
    for vertex in sorted(graph.vertices()):
        for edge_type in (None, *TYPES):
            orders.append(list(graph.out_edges(vertex, edge_type)))
            orders.append(list(graph.in_edges(vertex, edge_type)))
            orders.append(list(graph.incident_edges(vertex, edge_type)))
    return orders


def test_read_order_is_identical_across_hash_seeds():
    script = (
        "from tests.graph.test_store_invariants import read_orders\n"
        "print(read_orders(3))\n"
    )
    outputs = set()
    for seed in ("1", "2"):
        path = os.pathsep.join((str(REPO / "src"), str(REPO)))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


class TestImmutableLabels:
    def test_labels_of_is_labels_view(self):
        graph = PropertyGraph()
        vertex = graph.add_vertex(["A", "B"])
        assert graph.labels_of(vertex) is graph.labels_view(vertex)
        assert isinstance(graph.labels_view(vertex), frozenset)

    def test_equal_label_sets_are_one_object(self):
        graph = PropertyGraph()
        first = graph.add_vertex(["A", "B"])
        second = graph.add_vertex(["B", "A"])
        third = graph.add_vertex(["A"])
        graph.add_label(third, "B")
        assert graph.labels_of(first) is graph.labels_of(second)
        assert graph.labels_of(third) is graph.labels_of(first)

    def test_vertex_added_carries_the_interned_set(self):
        graph = PropertyGraph()
        events = []
        graph.subscribe(events.append)
        vertex = graph.add_vertex(["A"])
        assert events[0].labels is graph.labels_of(vertex)

    def test_label_flip_swaps_and_never_mutates(self):
        graph = PropertyGraph()
        vertex = graph.add_vertex(["A"])
        held = graph.labels_view(vertex)
        graph.add_label(vertex, "B")
        assert held == frozenset({"A"})
        assert graph.labels_of(vertex) == frozenset({"A", "B"})

    def test_batch_before_image_does_not_move_with_a_later_flip(self):
        graph = PropertyGraph()
        vertex = graph.add_vertex(["A"], {"k": 1})
        batch = BatchAccumulator(graph)
        graph.subscribe(batch.record)
        graph.set_vertex_property(vertex, "k", 2)  # first touch: the image
        graph.add_label(vertex, "B")
        graph.remove_label(vertex, "A")
        labels, properties = batch.consolidate().vertex_before[vertex]
        assert labels == frozenset({"A"})
        assert properties == {"k": 1}


class TestRejectedWrites:
    """A value the store cannot hold is refused before anything is stored."""

    BAD = ({"k": object()}, {"k": {1: "non-string key"}})

    def check_clean(self, graph, shadow):
        check_reads(graph, shadow)
        check_layout(graph)
        assert graph.vertex_count == len(shadow.vertices)
        assert graph.edge_count == len(shadow.edges)

    @pytest.mark.parametrize("bad", BAD)
    def test_rejected_add_vertex_leaves_no_vertex(self, bad):
        graph, shadow = PropertyGraph(), Shadow()
        shadow.vertices[graph.add_vertex(["A"])] = ({"A"}, {})
        with pytest.raises(InvalidValueError):
            graph.add_vertex(["B"], bad)
        self.check_clean(graph, shadow)
        assert frozenset({"B"}) not in graph._label_sets
        shadow.vertices[graph.add_vertex(["B"], {"k": 1})] = ({"B"}, {"k": 1})
        self.check_clean(graph, shadow)

    @pytest.mark.parametrize("bad", BAD)
    def test_rejected_add_edge_leaves_no_edge(self, bad):
        graph, shadow = PropertyGraph(), Shadow()
        vertex = graph.add_vertex(["A"])
        shadow.vertices[vertex] = ({"A"}, {})
        with pytest.raises(InvalidValueError):
            graph.add_edge(vertex, vertex, "R", bad)
        self.check_clean(graph, shadow)
        edge = graph.add_edge(vertex, vertex, "R")
        shadow.edges[edge] = (vertex, vertex, "R", {})
        self.check_clean(graph, shadow)

    def test_rejection_caught_inside_a_transaction_commits_the_rest(self):
        graph, shadow = PropertyGraph(), Shadow()
        with graph.transaction():
            shadow.vertices[graph.add_vertex(["A"])] = ({"A"}, {})
            with pytest.raises(InvalidValueError):
                graph.add_vertex(["B"], self.BAD[0])
            shadow.vertices[graph.add_vertex(["C"])] = ({"C"}, {})
        self.check_clean(graph, shadow)

    def test_rejection_that_aborts_a_transaction_rolls_back_cleanly(self):
        graph, shadow = PropertyGraph(), Shadow()
        shadow.vertices[graph.add_vertex(["A"])] = ({"A"}, {})
        with pytest.raises(InvalidValueError):
            with graph.transaction():
                graph.add_vertex(["C"])
                graph.add_vertex(["B"], self.BAD[0])
        self.check_clean(graph, shadow)
        shadow.vertices[graph.add_vertex(["B"])] = ({"B"}, {})
        self.check_clean(graph, shadow)
