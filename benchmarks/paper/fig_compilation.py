"""E2 — the paper's compilation pipeline (§4 steps 1–3).

Regenerates the worked example: the GRA, NRA and FRA forms of the running
example including the ``{lang → pL}`` pushdown annotations, and measures
compilation cost per stage across a mix of query shapes.
"""

from __future__ import annotations

import sys
from pathlib import Path

# run from a checkout without installing: the package lives in ../../src
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.bench import Timer, format_table
from repro.compiler import compile_query
from repro.compiler.cypher_to_gra import compile_to_gra
from repro.compiler.gra_to_nra import lower_to_nra
from repro.compiler.nra_to_fra import flatten_to_fra
from repro.compiler.optimizer import optimize
from repro.cypher import parse
from repro.workloads import social, trainbenchmark

PAPER_QUERY = social.RUNNING_EXAMPLE_QUERY

QUERY_MIX = {
    "paper_example": PAPER_QUERY,
    "route_sensor": trainbenchmark.QUERIES["RouteSensor"],
    "connected_segments": trainbenchmark.QUERIES["ConnectedSegments"],
    "aggregation": social.QUERIES["posts_per_person"],
}


def main() -> None:
    compiled = compile_query(PAPER_QUERY)
    print(compiled.explain())
    print()

    rows = []
    for name, query in QUERY_MIX.items():
        syntax_t = Timer()
        with syntax_t:
            syntax = parse(query)
        gra_t = Timer()
        with gra_t:
            gra = compile_to_gra(syntax)
        nra_t = Timer()
        with nra_t:
            nra = lower_to_nra(gra)
        fra_t = Timer()
        with fra_t:
            fra = flatten_to_fra(nra)
        opt_t = Timer()
        with opt_t:
            optimize(fra)
        rows.append(
            [
                name,
                syntax_t.seconds,
                gra_t.seconds,
                nra_t.seconds,
                fra_t.seconds,
                opt_t.seconds,
            ]
        )
    print(
        format_table(
            ["query", "parse", "→GRA", "→NRA", "→FRA", "optimize"],
            rows,
            title="E2 — per-stage compilation cost",
        )
    )


if __name__ == "__main__":
    main()
