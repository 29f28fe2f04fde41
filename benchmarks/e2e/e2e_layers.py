"""The traced pass: per-layer metrics, benchmark-side spans, the two tables.

Everything is measured from outside ``src/``: by timing calls into each
layer's public functions, by reading the engine's own instruments
(``metrics_snapshot()`` histograms and gauges, ``answer_stats()``,
``QueryEngine.last_trace``), and by replaying the same op list on a graph
nobody subscribes to (the floor under every set-up and commit).  A layer
is a module under ``src/repro/``; metric names start with it.

The pass runs the workload twice in one process — once untraced as the
reference for ``obs.trace_overhead_pct``, once with ``collect_metrics``
and ``trace_batches`` on — and writes its spans once, at the end.
"""

from __future__ import annotations

import collections
import json
import statistics
from pathlib import Path

from repro.compiler import (
    compile_query,
    compile_to_gra,
    flatten_to_fra,
    lower_to_nra,
    optimize,
)
from repro.cypher import ast
from repro.cypher.parser import parse

import e2e_harness as harness
import e2e_inputs
from e2e_harness import now

OUT_DIR = Path(__file__).with_name("out")

#: node kinds ``rete.nodes.self_s.*`` is reported for — the class names
#: behind ``apply <Kind>`` spans; a kind not listed here folds into
#: ``other`` so the metric set stays fixed when a node class is added
NODE_KINDS = (
    "Selection",
    "SelectionPartition",
    "BindingIndexedSelection",
    "Projection",
    "Dedup",
    "Unwind",
    "Aggregate",
    "Join",
    "AntiJoin",
    "LeftOuterJoin",
    "Union",
    "TransitiveClosure",
    "Reachability",
    "Production",
)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [
        ("cypher.parse_s", "s", "lower"),
        ("cypher.queries", "count", "lower"),
        ("compiler.compile_s", "s", "lower"),
        ("compiler.to_gra_s", "s", "lower"),
        ("compiler.to_nra_s", "s", "lower"),
        ("compiler.to_fra_s", "s", "lower"),
        ("compiler.optimize_s", "s", "lower"),
        ("compiler.plan_ops", "count", "lower"),
        ("graph.load_s", "s", "lower"),
        ("graph.mutate_s", "s", "lower"),
        ("graph.events", "count", "lower"),
        ("rete.network.register_s", "s", "lower"),
        ("rete.network.register_ms_p50", "ms", "lower"),
        ("rete.network.nodes_live", "count", "lower"),
        ("rete.sharing.subplan_hit_ratio", "ratio", "higher"),
        ("rete.batch.coalesce_s", "s", "lower"),
        ("rete.batch.net_per_raw", "ratio", "lower"),
        ("rete.router.candidates_per_record", "ratio", "lower"),
        ("rete.router.union_hit_ratio", "ratio", "higher"),
        ("rete.nodes.dispatch_s", "s", "lower"),
        ("rete.nodes.rows_applied_per_event", "ratio", "lower"),
        ("rete.nodes.rows_emitted_per_event", "ratio", "lower"),
        ("rete.nodes.self_s.route_input", "s", "lower"),
        ("rete.nodes.self_s.emit", "s", "lower"),
    ]
    + [(f"rete.nodes.self_s.{kind}", "s", "lower") for kind in NODE_KINDS]
    + [
        ("rete.nodes.self_s.other", "s", "lower"),
        ("rete.production.merge_s", "s", "lower"),
        ("rete.production.callback_rows", "count", "lower"),
        ("views.answer_s", "s", "lower"),
        ("views.hit_ratio", "ratio", "higher"),
        ("eval.recompute_s", "s", "lower"),
        ("updates.execute_s", "s", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
    ]
)


class TraceFold:
    """Folds ``QueryEngine.last_trace`` into per-kind self time, per unit.

    Called after each unit, outside its timed interval.  Self times of one
    tree sum to its root's inclusive time, so nothing inside Rete is lost:
    phase roots keep their own names (``batch``, ``coalesce``, ``merge``),
    the ``dispatch``/``event`` self time is routing plus input-node
    translation, ``apply <Kind>`` spans fold by node kind and ``emit``
    spans are the fan-out glue between them.
    """

    def __init__(self, engine):
        self.engine = engine
        self.seen = engine.last_trace
        self.self_seconds = collections.Counter()
        self.engine_seconds = collections.Counter()  # unit kind → s inside Rete

    def __call__(self, unit_kind: str) -> None:
        trace = self.engine.last_trace
        if trace is self.seen:
            return
        self.seen = trace
        self.engine_seconds[unit_kind] += trace.seconds
        fold = self.self_seconds
        for span in trace.walk():
            name = span.name
            if name.startswith("apply "):
                kind = name[6:]
                fold[kind if kind in NODE_KINDS else "other"] += span.self_seconds
            elif name.startswith("emit "):
                fold["emit"] += span.self_seconds
            elif name in ("dispatch", "event"):
                fold["route_input"] += span.self_seconds
            else:
                fold[name] += span.self_seconds


# -- probes: layers measured on their own ----------------------------------------


def probe_front_end(queries: dict) -> tuple[dict, dict]:
    """Time parse and the four compiler stages per distinct query text.

    Returns the per-layer totals and each query key's parse seconds.
    """
    totals = collections.Counter()
    parse_seconds = {}
    for key, text in queries.items():
        began = now()
        syntax = parse(text)
        parse_seconds[key] = now() - began
        totals["cypher.parse_s"] += parse_seconds[key]
        totals["cypher.queries"] += 1
        if isinstance(syntax, ast.UpdatingQuery):
            continue  # executed by repro.updates, never compiled to algebra
        plan = syntax
        for name, stage in (
            ("compiler.to_gra_s", compile_to_gra),
            ("compiler.to_nra_s", lower_to_nra),
            ("compiler.to_fra_s", flatten_to_fra),
            ("compiler.optimize_s", optimize),
        ):
            began = now()
            plan = stage(plan)
            totals[name] += now() - began
        began = now()
        compiled = compile_query(text)
        totals["compiler.compile_s"] += now() - began
        totals["compiler.plan_ops"] += count_operators(compiled.plan)
    return totals, parse_seconds


def count_operators(plan) -> int:
    return 1 + sum(count_operators(child) for child in plan.children)


def probe_graph_floor(inputs: dict) -> dict:
    """Load and mutate a graph no engine listens to: the layer's floor.

    ``execute`` units replay the elementary changes the statement caused;
    reads and view lifecycle do not touch the graph.
    """
    began = now()
    graph = e2e_inputs.load_graph(inputs["load"], inputs["indexes"])
    load_seconds = now() - began
    mutate_seconds = 0.0
    for kind, payload, _ in inputs["units"]:
        if kind == "tx":
            calls = harness.bind_ops(graph, payload)
            began = now()
            with graph.transaction():
                for call, args in calls:
                    call(*args)
            mutate_seconds += now() - began
        elif kind in ("auto", "execute"):
            calls = harness.bind_ops(graph, [payload] if kind == "auto" else payload[2])
            began = now()
            for call, args in calls:
                call(*args)
            mutate_seconds += now() - began
    return {
        "graph.load_s": load_seconds,
        "graph.mutate_s": mutate_seconds,
        "graph.events": inputs["events"],
    }


# -- spans -----------------------------------------------------------------------


def build_spans(inputs: dict, timing: dict, times: tuple) -> list[list]:
    """Benchmark-side spans ``[id, op, name, start, end, parent]``.

    One ``op`` id per operation (0 is set-up, unit *i* is *i* + 1); every
    operation has a root span and child spans where it crosses into a
    layer's public function.  Times are seconds since set-up began.
    """
    epoch = timing["total"][0]
    spans: list[list] = []

    def add(op, name, interval, parent):
        spans.append(
            [len(spans) + 1, op, name, interval[0] - epoch, interval[1] - epoch, parent]
        )
        return len(spans)

    root = add(0, "setup", timing["total"], None)
    add(0, "graph.load", timing["load"], root)
    add(0, "rete.engine.init", timing["init"], root)
    for interval in timing["compile"]:
        add(0, "compiler.compile_query", interval, root)
    for interval in timing["register"]:
        add(0, "rete.network.register", interval, root)
    t0s, tms, t1s = times
    for index, (kind, _, _) in enumerate(inputs["units"]):
        op = index + 1
        whole = (t0s[index], t1s[index])
        if kind == "tx":
            unit = add(op, "unit.tx", whole, None)
            add(op, "graph.mutate", (t0s[index], tms[index]), unit)
            add(op, "graph.commit", (tms[index], t1s[index]), unit)
        elif kind == "lifecycle":
            unit = add(op, "unit.lifecycle", whole, None)
            add(op, "rete.view.detach", (t0s[index], tms[index]), unit)
            add(op, "rete.network.register", (tms[index], t1s[index]), unit)
        else:
            name = {
                "auto": "graph.mutate",
                "read_view": "rete.view.rows",
                "read_eval": "views.evaluate",
                "execute": "updates.execute",
            }[kind]
            add(op, name, whole, None)
    return spans


# -- the traced pass -------------------------------------------------------------


def run_traced(workload, seed, seconds, smoke=False, inject=None) -> dict:
    inputs, digest = harness.prepare_inputs(workload, seed, seconds, smoke, inject)
    units = inputs["units"]

    # reference: the same op list, instruments off, no checkpoints
    reference, timing = harness.set_up(inputs)
    times = harness.timed_phase(reference, harness.bind_units(reference), seed, gate=False)
    reference_metrics, _ = harness.end_to_end(reference, times, [timing["seconds"]])
    failures = reference.failures
    del reference

    values, parse_seconds = probe_front_end(inputs["queries"])
    values.update(probe_graph_floor(inputs))

    run, timing = harness.set_up(inputs, traced=True)
    run.failures.extend(failures)
    harness.checkpoint(run, None)
    base = run.engine.metrics_snapshot()
    base_answers = run.engine.answer_stats().as_dict()
    fold = TraceFold(run.engine)
    times = harness.timed_phase(
        run, harness.bind_units(run), seed, after_unit=fold, gate=False
    )
    answers = run.engine.answer_stats().as_dict()
    snapshot = run.engine.metrics_snapshot()
    run.recompute_seconds = 0.0
    harness.checkpoint(run, None, final=True, perturb=inject == "oracle")
    traced_metrics, counts = harness.end_to_end(run, times, [timing["seconds"]])

    def delta(name: str, field: str = "value") -> float:
        return snapshot[name][field] - base[name][field]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    durations = collections.Counter()
    t0s, _, t1s = times
    for index, (kind, _, _) in enumerate(units):
        durations[kind] += t1s[index] - t0s[index]
    registers = [end - start for start, end in timing["register"]]
    net_records = delta("repro_batch_net_records_total")
    queries_served = answers["queries"] - base_answers["queries"]
    values.update(
        {
            "rete.network.register_s": sum(registers),
            "rete.network.register_ms_p50": statistics.median(registers) * 1e3,
            "rete.network.nodes_live": snapshot["repro_nodes_live"]["value"],
            "rete.sharing.subplan_hit_ratio": ratio(
                snapshot["repro_sharing_subplan_hits"]["value"],
                snapshot["repro_sharing_subplan_requests"]["value"],
            ),
            "rete.batch.coalesce_s": delta("repro_batch_coalesce_seconds", "sum"),
            "rete.batch.net_per_raw": ratio(
                net_records, delta("repro_batch_raw_events_total")
            ),
            "rete.router.candidates_per_record": ratio(
                delta("repro_router_candidates_visited"),
                delta("repro_router_events_routed") + net_records,
            ),
            "rete.router.union_hit_ratio": ratio(
                delta("repro_router_union_cache_hits"),
                delta("repro_router_union_cache_hits")
                + delta("repro_router_union_cache_misses"),
            ),
            "rete.nodes.dispatch_s": delta("repro_batch_dispatch_seconds", "sum")
            + delta("repro_event_dispatch_seconds", "sum"),
            "rete.nodes.rows_applied_per_event": ratio(
                delta("repro_node_applied_rows"), inputs["events"]
            ),
            "rete.nodes.rows_emitted_per_event": ratio(
                delta("repro_node_emitted_rows"), inputs["events"]
            ),
            "rete.production.merge_s": delta("repro_batch_merge_seconds", "sum"),
            "rete.production.callback_rows": sum(
                len(change)
                for log in list(run.logs.values()) + [r[2] for r in run.retired]
                for change in log
            ),
            "views.answer_s": durations["read_eval"],
            "views.hit_ratio": ratio(
                answers["answered"] - base_answers["answered"], queries_served
            ),
            "eval.recompute_s": run.recompute_seconds,
            "updates.execute_s": durations["execute"],
            "obs.trace_overhead_pct": 100.0
            * (1.0 - traced_metrics["events_per_s"][0] / reference_metrics["events_per_s"][0]),
        }
    )
    for kind in ("route_input", "emit", "other") + NODE_KINDS:
        values[f"rete.nodes.self_s.{kind}"] = fold.self_seconds[kind]

    spans = build_spans(inputs, timing, times)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}.json"
    trace_file.write_text(
        json.dumps(
            {"workload": workload, "seed": seed, "digest": digest,
             "fields": ["id", "op", "name", "start_s", "end_s", "parent"],
             "spans": spans},
            separators=(",", ":"),
        )
    )
    counts["trace_file"] = str(trace_file.relative_to(Path(__file__).parent))
    counts["spans"] = len(spans)
    counts["reference_events_per_s"] = reference_metrics["events_per_s"][0]
    counts["traced_events_per_s"] = traced_metrics["events_per_s"][0]
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    result = harness.finish(run, metrics, counts, digest)
    result["tables"] = [
        setup_table(timing, parse_seconds, inputs),
        commit_table(durations, fold),
    ]
    return result


# -- the two tables ----------------------------------------------------------------


def share_table(title: str, rows: list[tuple[str, float]], total: float) -> str:
    """Rows of (layer, seconds) as seconds and % of *total*; the part of
    *total* no row covers is shown as ``unattributed``, never dropped."""
    rows = [row for row in rows if row[1]]
    rows.append(("unattributed", total - sum(seconds for _, seconds in rows)))
    width = max(len(name) for name, _ in rows)
    lines = [title, f"  {'layer'.ljust(width)}   seconds   share"]
    for name, seconds in rows:
        lines.append(
            f"  {name.ljust(width)}  {seconds:8.4f}  {100 * seconds / total:5.1f} %"
        )
    lines.append(f"  {'total'.ljust(width)}  {total:8.4f}  100.0 %")
    return "\n".join(lines)


def setup_table(timing: dict, parse_seconds: dict, inputs: dict) -> str:
    def spent(intervals) -> float:
        return sum(end - start for start, end in intervals)

    # compile_query parses inside; the probe's parse time of the same
    # texts splits its span into the cypher and compiler layers
    parsing = sum(parse_seconds[key] for key in {key for _, key, _ in inputs["views"]})
    compile_seconds = spent(timing["compile"])
    return share_table(
        f"set-up of {inputs['workload']} (traced pass): where the time goes",
        [
            ("graph: load", spent([timing["load"]])),
            ("rete: engine construction", spent([timing["init"]])),
            ("cypher: parse (timed apart)", min(parsing, compile_seconds)),
            ("compiler: compile_query less parse", max(0.0, compile_seconds - parsing)),
            ("rete.network: build + populate", spent(timing["register"])),
        ],
        timing["raw_seconds"],
    )


def commit_table(durations: dict, fold: TraceFold) -> str:
    """Where the timed phase's wall time goes, by layer.

    Each write unit's time outside Rete is its duration less the engine
    trace's inclusive time; inside Rete the folded self times take over.
    """
    inside = fold.engine_seconds
    self_s = fold.self_seconds
    rows = [
        ("graph: mutations, tx hooks, event buffering",
         durations["tx"] + durations["auto"] - inside["tx"] - inside["auto"]),
        ("updates: parse, match, mutate (outside Rete)",
         durations["execute"] - inside["execute"]),
        ("rete.network: detach + register (lifecycle)",
         durations["lifecycle"] - inside["lifecycle"]),
        ("rete.batch: coalesce", self_s["coalesce"]),
        ("rete.router + input nodes", self_s["route_input"]),
    ]
    rows += [(f"rete.nodes: {kind}", self_s[kind]) for kind in NODE_KINDS + ("other",)]
    rows += [
        ("rete.nodes: emit fan-out", self_s["emit"]),
        ("rete.production: merge + on_change", self_s["merge"]),
        ("rete.engine: batch glue", self_s["batch"]),
        ("reads: View.rows()", durations["read_view"]),
        ("reads: evaluate (views / eval)", durations["read_eval"]),
    ]
    return share_table(
        "timed phase (traced pass): where the time goes",
        rows,
        sum(durations.values()),
    )
