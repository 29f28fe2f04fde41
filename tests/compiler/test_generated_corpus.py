"""Every expression of the query corpora generates clean, stable code.

The SNB and Train Benchmark view definitions and the parser round-trip
corpus are compiled to physical plans, and every σ predicate, π item list,
ω expression, γ key/argument and ordering expression is run through the
expression generator in a fresh interpreter with ``SyntaxWarning`` turned
into an error (the generated source must not, say, test a literal with
``is``).  Two such interpreters with different hash seeds must produce
byte-identical text: memo keys and ``explain`` output are stable.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.algebra import ops
from repro.algebra.expressions import compile_predicate, compile_projection
from repro.compiler.pipeline import compile_query
from repro.cypher import ast, parse
from repro.workloads.snb import SNB_QUERIES, SNB_TOPK_QUERIES
from repro.workloads.trainbenchmark import QUERIES as TRAIN_QUERIES
from tests.cypher.test_roundtrip import CORPUS

REPO = Path(__file__).resolve().parents[2]


def corpus_queries() -> list[str]:
    """Read queries of the three corpora (updating statements have no plan)."""
    texts = [*SNB_QUERIES.values(), *SNB_TOPK_QUERIES.values(), *TRAIN_QUERIES.values()]
    texts += [q for q in CORPUS if not isinstance(parse(q), ast.UpdatingQuery)]
    return texts


def expressions_of(plan: ops.Operator) -> list[ast.Expr]:
    """The scalar expressions operator *plan* evaluates over its child's rows."""
    if isinstance(plan, ops.Project):
        return [expr for _, expr in plan.items]
    if isinstance(plan, ops.Unwind):
        return [plan.expression]
    if isinstance(plan, ops.Aggregate):
        arguments = [a.argument for a in plan.aggregates if a.argument is not None]
        return [expr for _, expr in plan.keys] + arguments
    if isinstance(plan, ops.Sort):
        return [expr for expr, _ in plan.items]
    if isinstance(plan, (ops.Skip, ops.Limit)):
        return [plan.count]
    return []


def generated_sources(plan: ops.Operator):
    """The generated source of every expression in *plan*, in plan order."""
    if isinstance(plan, ops.Select):
        yield compile_predicate(plan.predicate, plan.children[0].schema).source
    elif expressions_of(plan):
        yield compile_projection(expressions_of(plan), plan.children[0].schema).source
    for child in plan.children:
        yield from generated_sources(child)


def corpus_digest() -> str:
    digest = hashlib.sha256()
    count = 0
    for text in corpus_queries():
        for source in generated_sources(compile_query(text).plan):
            digest.update(source.encode())
            count += 1
    return f"{count} {digest.hexdigest()}"


def fresh_interpreter_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    script = "from tests.compiler.test_generated_corpus import corpus_digest; print(corpus_digest())"
    done = subprocess.run(
        [sys.executable, "-W", "error::SyntaxWarning", "-c", script],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_corpora_generate_warning_free_code_identical_across_processes():
    first = fresh_interpreter_digest("0")
    count = int(first.split()[0])
    assert count >= 60, f"only {count} expression groups found in the corpora"
    assert fresh_interpreter_digest("12345") == first
    assert corpus_digest() == first  # and in this process, memo warm or not
