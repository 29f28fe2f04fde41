"""The join-side narrowing pass is exact, stable and idempotent.

:func:`~repro.compiler.optimizer.narrow_join_sides` rewrites the plan an
incremental engine builds: label-only © scans fold into the ⇑ they are
joined to, and every ⋈ / ⟕ / ▷ side is cut to the columns read above
it.  For every read query the repository owns, on a random graph whose
labels, edge types and property keys are the query's own (and, for the
SNB and Train Benchmark views, on their own generators too), the pass
must leave the root schema alone, compute the same bag cell for cell
(type names included), reach a fixpoint after one application, and
fingerprint the same under two hash seeds.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import PropertyGraph
from repro.algebra import ops
from repro.algebra.fra import _expressions_of
from repro.compiler.fingerprint import fingerprint
from repro.compiler.optimizer import lifted_plan, narrow_join_sides
from repro.compiler.pipeline import compile_query
from repro.cypher import ast
from repro.errors import ReproError
from repro.eval import Interpreter
from repro.workloads.random_graphs import RandomGraphConfig, random_graph
from repro.workloads.snb import SNB_QUERIES, SNB_TOPK_QUERIES, generate_snb
from repro.workloads.trainbenchmark import QUERIES as TRAIN_QUERIES
from repro.workloads.trainbenchmark import generate_railway
from tests.compiler.test_generated_corpus import corpus_queries
from tests.integration.test_differential import DIFFERENTIAL_QUERIES
from tests.rete.test_populate import BINDING_TEMPLATES

REPO = Path(__file__).resolve().parents[2]

#: property pools, one per graph: values Python equality conflates (so a
#: cell that changed type shows), and strings for the string operators
POOLS = ((1, True, 1.0, 2, 2.5, None), ("en", "a", "mid", 0, None))


def read_queries() -> list[str]:
    """Every read query the repository owns, each once, in a stable order."""
    texts = [*DIFFERENTIAL_QUERIES, *BINDING_TEMPLATES.values(), *corpus_queries()]
    return list(dict.fromkeys(texts))


def graph_for(plan: ops.Operator, seed: int):
    """A random graph over the labels, edge types and keys *plan* reads,
    its properties drawn from ``POOLS[seed % 2]``."""
    labels, types, keys = {"Post"}, {"REPLY"}, {"lang"}
    for op in plan.walk():
        if isinstance(op, ops.GetVertices):
            labels.update(op.labels)
        elif isinstance(op, ops.GetEdges):
            labels.update(op.src_labels + op.tgt_labels)
            types.update(op.types)
        for projection in getattr(op, "projections", ()):
            if projection.key is not None:
                keys.add(projection.key)
    config = RandomGraphConfig(
        labels=tuple(sorted(labels)),
        edge_types=tuple(sorted(types)),
        key_values=dict.fromkeys(sorted(keys), POOLS[seed % 2]),
        max_labels_per_vertex=len(labels),
    )
    return random_graph(vertices=10, edges=12 * len(types), seed=seed, config=config).graph


def parameters_of(plan: ops.Operator) -> dict:
    return {
        node.name: 1
        for op in plan.walk()
        for expr in _expressions_of(op)
        for node in ast.walk(expr)
        if isinstance(node, ast.Parameter)
    }


def typed(value):
    return (type(value).__name__, repr(value))


def outcome(graph, parameters, plan):
    """*plan*'s bag keyed type-exactly, or the type of the error it raised."""
    try:
        bag = Interpreter(graph, parameters).evaluate(plan)
    except ReproError as exc:
        return type(exc)
    return Counter({tuple(map(typed, row)): mult for row, mult in bag.items()})


QUERIES = read_queries()


@pytest.mark.parametrize("text", QUERIES)
def test_narrowed_plan_computes_the_same_bag(text):
    compiled = compile_query(text)
    for plan in dict.fromkeys((compiled.plan, lifted_plan(compiled))):
        narrowed = narrow_join_sides(plan)
        assert narrowed.schema == plan.schema
        assert narrow_join_sides(narrowed) is narrowed
        parameters = parameters_of(plan)
        for seed in range(len(POOLS)):
            graph = graph_for(plan, seed)
            assert outcome(graph, parameters, narrowed) == outcome(
                graph, parameters, plan
            ), text


def test_the_corpus_exercises_the_pass():
    """Most queries are rewritten, and most produce rows on their graph."""
    rewritten = rows = 0
    for text in QUERIES:
        plan = compile_query(text).plan
        rewritten += narrow_join_sides(plan) is not plan
        rows += any(
            isinstance(result, Counter) and bool(result)
            for seed in range(len(POOLS))
            if (result := outcome(graph_for(plan, seed), parameters_of(plan), plan))
        )
    assert len(QUERIES) >= 50
    assert rewritten >= len(QUERIES) // 3
    assert rows >= len(QUERIES) * 2 // 3


#: reads of a value from one MATCH's join side above the join that meets
#: the other: a σ, a function and a γ over it
CROSS_MATCH_QUERIES = [
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) WHERE a.v = b.v RETURN m",
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) RETURN m, toString(a.v) AS s",
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) "
    "RETURN m, count(DISTINCT toString(a.v)) AS n",
    "MATCH (a:N)-[:E]->(m) MATCH (b:N)-[:F]->(m) WHERE a.v = b.v "
    "RETURN b, count(*) AS n",
]


def hostile_graph() -> PropertyGraph:
    """``a`` vertices whose values Python's ``==`` conflates, all pointing
    at one ``m``, which two ``b`` vertices point at too."""
    graph = PropertyGraph()
    m = graph.add_vertex(labels=["M"])
    for value in POOLS[0] + (0.0, -0.0):
        graph.add_edge(graph.add_vertex(labels=["N"], properties={"v": value}), m, "E")
    for value in (True, 1.0):
        graph.add_edge(graph.add_vertex(labels=["N"], properties={"v": value}), m, "F")
    return graph


@pytest.mark.parametrize("text", CROSS_MATCH_QUERIES)
def test_values_equal_across_types_stay_apart(text):
    """A side keeps a value column's entity id, so its rows do not merge
    ``1`` with ``True`` or ``1.0`` (nor ``0.0`` with ``-0.0``)."""
    plan = compile_query(text).plan
    narrowed = narrow_join_sides(plan)
    assert narrowed is not plan
    expected = outcome(hostile_graph(), {}, plan)
    assert isinstance(expected, Counter) and expected
    assert outcome(hostile_graph(), {}, narrowed) == expected


#: the workloads' own generators, where their long patterns find matches
WORKLOAD_CASES = [
    *(("snb", text) for text in (*SNB_QUERIES.values(), *SNB_TOPK_QUERIES.values())),
    *(("train", text) for text in TRAIN_QUERIES.values()),
]


@pytest.fixture(scope="module")
def workload_graphs():
    return {
        "snb": generate_snb(
            persons=10, forums=2, posts_per_forum=4, comments_per_post=2
        ).graph,
        "train": generate_railway(
            routes=5, seed=4, error_rates=dict.fromkeys(TRAIN_QUERIES, 0.4)
        ).graph,
    }


@pytest.mark.parametrize("workload, text", WORKLOAD_CASES)
def test_narrowed_workload_plan_on_its_generator(workload_graphs, workload, text):
    graph = workload_graphs[workload]
    plan = compile_query(text).plan
    parameters = dict.fromkeys(parameters_of(plan), "person-3")
    expected = outcome(graph, parameters, plan)
    assert isinstance(expected, Counter) and expected
    assert outcome(graph, parameters, narrow_join_sides(plan)) == expected


def fingerprints() -> str:
    """One line per read query: its narrowed plan and that plan's fingerprint."""
    lines = []
    for text in read_queries():
        narrowed = narrow_join_sides(compile_query(text).plan)
        fp = fingerprint(narrowed)  # None: a literal the sharing layer skips
        if fp is not None:
            fp = (fp.structure, sorted(fp.parameters))
        lines.append(f"{narrowed!r}\n{fp!r}")
    return "\n".join(lines)


def fingerprints_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    script = (
        "from tests.compiler.test_narrow_join_sides import fingerprints; "
        "print(fingerprints())"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_narrowed_fingerprints_do_not_depend_on_string_hashing():
    assert fingerprints_under("1") == fingerprints_under("2")
