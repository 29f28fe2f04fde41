"""E9 — ablation D1: schema inference (paper §4 step 3) on vs. off.

The paper's flattening step infers the *minimal* property set each base
operator must materialise (``©(p:Post{lang→pL})``).  The ablation disables
that minimality by forcing every base operator to additionally ship the
*entire* property map of its entities (``properties(x)`` columns) — the
naive alternative for a schema-free data model.  Costs measured:

* heavier tuples in every join memory (network memory),
* every property change becomes relevant → more delta traffic,
* slower registration (bigger initial scan payloads).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

# run from a checkout without installing: the package lives in ../../src
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import compile_query
from repro.algebra import ops
from repro.bench import Timer, format_table, speedup
from repro.compiler.treeutil import rebuild
from repro.rete.engine import IncrementalEngine
from repro.workloads import social

QUERY = social.RUNNING_EXAMPLE_QUERY


def with_all_properties(plan: ops.Operator) -> ops.Operator:
    """Annotate every base operator with full ``properties(x)`` columns —
    the no-schema-inference strawman."""
    if isinstance(plan, ops.GetVertices):
        extra = ops.PropertyProjection(plan.var, "properties")
        merged = dict((p.output, p) for p in plan.projections)
        merged[extra.output] = extra
        return ops.GetVertices(
            plan.var, plan.labels, tuple(sorted(merged.values(), key=lambda p: p.output))
        )
    if isinstance(plan, ops.GetEdges):
        merged = dict((p.output, p) for p in plan.projections)
        for subject in (plan.src, plan.edge, plan.tgt):
            extra = ops.PropertyProjection(subject, "properties")
            merged[extra.output] = extra
        return ops.GetEdges(
            plan.src,
            plan.edge,
            plan.tgt,
            plan.types,
            src_labels=plan.src_labels,
            tgt_labels=plan.tgt_labels,
            directed=plan.directed,
            projections=tuple(sorted(merged.values(), key=lambda p: p.output)),
        )
    if isinstance(plan, ops.TransitiveJoin):
        # the ⋈* edges relation must stay projection-free
        return rebuild(plan, [with_all_properties(plan.children[0]), plan.children[1]])
    return rebuild(plan, [with_all_properties(c) for c in plan.children])


def build_view(graph, inferred: bool):
    """The query as a view on its own engine, so the modes share nothing."""
    compiled = compile_query(QUERY)
    if not inferred:
        compiled = replace(compiled, plan=with_all_properties(compiled.plan))
    return IncrementalEngine(graph).register(compiled)


def workload(persons=12):
    return social.generate_social(
        persons=persons, posts_per_person=2, comments_per_post=5, seed=27
    )


def main() -> None:
    rows, contents = [], []
    for inferred, label in ((True, "inferred (paper)"), (False, "all properties")):
        net = workload(persons=20)
        with Timer() as t_reg:
            view = build_view(net.graph, inferred)
        with Timer() as t_update:
            for i in range(100):
                message = net.posts[i % len(net.posts)]
                net.graph.set_vertex_property(message, "content", f"edit {i}")
        with Timer() as t_relevant:
            for i in range(100):
                message = net.posts[i % len(net.posts)]
                net.graph.set_vertex_property(message, "lang", "en" if i % 2 else "de")
        rows.append(
            [
                label,
                t_reg.seconds,
                view.memory_cells(),
                t_update.seconds / 100,
                t_relevant.seconds / 100,
            ]
        )
        contents.append(view.multiset())
    assert contents[0] == contents[1], "shipping all properties changed the view"
    base, naive = rows
    print(
        format_table(
            [
                "mode",
                "registration",
                "memory cells",
                "irrelevant update",
                "relevant update",
            ],
            rows,
            title="E9 — ablation D1: schema inference vs shipping all properties",
        )
    )
    print(
        f"irrelevant-update speedup from inference: "
        f"{speedup(naive[3], base[3])}"
    )


if __name__ == "__main__":
    main()
