"""One benchmark run: set-up, closed-loop replay, oracle gate, metrics.

Load model: closed loop, one client, one process — the next unit is
issued when the previous one has returned with every view consistent.
The replay touches the system only through public ``PropertyGraph`` /
``QueryEngine`` / ``View`` calls; every unit is timed on its own, and
everything the harness does between units (oracle checkpoints, snapshots
for the ``on_change`` replay check, trace folding) sits outside the timed
intervals.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time

from repro import QueryEngine
from repro.compiler.pipeline import compile_query

import e2e_inputs

now = time.perf_counter

WARMUP_SHARE = 0.05  # leading units excluded from every timed metric
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
CHECKPOINTS = (0.25, 0.5, 0.75)  # oracle checkpoints, as shares of the units
CHURN_SAMPLE = 32  # views checked per mid-run checkpoint on bindings.churn

WRITE_KINDS = ("tx", "auto", "lifecycle", "execute")

#: The reference host is a shared 2-core VM whose speed drifts and flickers
#: by ±15 % — for identical work, far more than one wants to detect.  The
#: drift is multiplicative on bytecode execution, so a fixed bytecode kernel
#: timed beside the work (PACE_SAMPLES times per phase, outside every timed
#: interval) tracks it: dividing it out cut the quartile spread of
#: identical runs from 16–20 % to 3–7 %.  Every end-to-end timing is
#: therefore reported at reference speed: measured seconds × REFERENCE_PACE_S
#: ÷ the kernel's seconds at that moment.  A memory-bound kernel did not
#: track the drift and is not used.  The kernel runs with collection off
#: and at fixed unit positions, so it never moves a garbage collection
#: into or out of a timed unit: the same units pay for GC in every run.
REFERENCE_PACE_S = 0.0019  # the kernel's usual time on the reference host
PACE_SAMPLES = 120  # per timed phase (never closer than 10 units apart)
SETUP_MARKS = 8  # pace samples along one set-up's view registrations


class Run:
    """A populated engine plus what the oracle gate needs to judge it."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.queries = inputs["queries"]
        self.graph = None
        self.engine = None
        self.views: dict[str, object] = {}
        self.specs: dict[str, tuple] = {}  # slot → (query key, params)
        self.logs: dict[str, list] = {}  # slot → on_change deltas, in order
        self.initial: dict[str, dict] = {}  # slot → bag right after register
        self.retired: list[tuple] = []  # (slot, initial, log, final) of detached
        self.attempted = 0
        self.failures: list[str] = []
        self.recompute_seconds = 0.0
        self.paces: list[tuple[int, float]] = []  # (after unit, kernel seconds)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def adopt(self, slot: str, key: str, params, view) -> None:
        """Track a freshly registered view (subscription already attached)."""
        self.views[slot] = view
        self.specs[slot] = (key, params)
        self.initial[slot] = view.multiset()

    def retire(self, slot: str) -> None:
        """Keep what the stream check needs of a view about to be detached."""
        self.retired.append(
            (slot, self.initial.pop(slot), self.logs.pop(slot), self.views[slot].multiset())
        )
        del self.specs[slot]


def host_pace() -> float:
    """Seconds the fixed bytecode kernel takes right now.

    One pass of a few milliseconds, not the best of several short ones:
    the host's slow spells come in bursts, the work beside the kernel pays
    their average, and the minimum of short passes dodges them (it left
    twice the run-to-run spread of the mean in identical runs).
    """
    collecting = gc.isenabled()
    gc.disable()  # the kernel's tuples must not trigger or shift a collection
    began = now()
    table: dict = {}
    get = table.get
    for number in range(12000):
        key = (number & 511, number % 7)
        table[key] = get(key, 0) + 1
    pace = now() - began
    del table
    if collecting:
        gc.enable()
    return pace


def set_up(inputs: dict, traced: bool = False) -> tuple[Run, dict]:
    """In-memory inputs → every view registered, populated and subscribed.

    Returns the run and the set-up's timings: ``seconds`` is the whole of
    it at reference speed (the host's pace is sampled at SETUP_MARKS points
    along the way and each stretch scaled by the pace around it),
    ``raw_seconds`` the same as measured, the rest raw clock intervals.
    Untraced, views register from query text (parse + compile + build +
    populate, the engine's plan cache deduplicating repeated templates, as
    a user would get).  Traced, each distinct text is compiled first by
    ``compile_query`` and views register the compiled query, so compile and
    build+populate separate.
    """
    run = Run(inputs)
    timing = {"compile": [], "register": []}
    marks = []  # (clock before the pace kernel, pace, clock after it)

    def mark() -> float:
        before = now()
        marks.append((before, host_pace(), now()))
        return marks[-1][2]

    start = mark()
    run.graph = e2e_inputs.load_graph(inputs["load"], inputs["indexes"])
    timing["load"] = (start, now())
    began = mark()
    run.engine = QueryEngine(
        run.graph,
        batch_transactions=inputs["batch_transactions"],
        collect_metrics=traced,
        trace_batches=traced,
    )
    timing["init"] = (began, now())
    compiled = {}
    mark_every = max(1, len(inputs["views"]) // SETUP_MARKS)
    for number, (slot, key, params) in enumerate(inputs["views"]):
        query = run.queries[key]
        if traced:
            if key not in compiled:
                began = now()
                compiled[key] = compile_query(query)
                timing["compile"].append((began, now()))
            query = compiled[key]
        began = now()
        view = run.engine.register(query, params)
        log = run.logs[slot] = []
        view.on_change(log.append)
        timing["register"].append((began, now()))
        run.adopt(slot, key, params, view)
        if (number + 1) % mark_every == 0:
            mark()
    mark()
    timing["total"] = (start, marks[-1][0])
    stretches = [
        (after[0] - before[2], (before[1] + after[1]) / 2)
        for before, after in zip(marks, marks[1:])
    ]
    timing["raw_seconds"] = sum(seconds for seconds, _ in stretches)
    timing["seconds"] = sum(
        seconds * REFERENCE_PACE_S / pace for seconds, pace in stretches
    )
    return run, timing


# -- replay -------------------------------------------------------------------


def bind_ops(graph, ops: list[list]) -> list[tuple]:
    """Elementary ops as (bound public mutator of *graph*, arguments)."""
    method = e2e_inputs.graph_methods(graph)
    return [(method[op[0]], op[1:]) for op in ops]


def bind_units(run: Run) -> list[tuple]:
    """Resolve op names to bound public methods, outside the timed region."""
    graph, queries = run.graph, run.queries
    bound = []
    for kind, payload, _ in run.inputs["units"]:
        if kind == "tx":
            payload = bind_ops(graph, payload)
        elif kind == "auto":
            payload = bind_ops(graph, [payload])[0]
        elif kind in ("read_eval", "execute"):
            payload = (queries[payload[0]], payload[1])
        bound.append((kind, payload))
    return bound


def replay(run: Run, bound: list, start: int, stop: int, times: tuple, after_unit=None):
    """Execute units ``start..stop``; fill ``times`` = (t0s, tms, t1s).

    ``tm`` splits a unit where two layers meet: end of the mutations /
    start of commit for ``tx``, end of detach / start of register for
    ``lifecycle``.  A raised exception counts as a failed operation and
    the replay goes on.
    """
    t0s, tms, t1s = times
    pace_every = max(10, len(bound) // PACE_SAMPLES)
    engine, views = run.engine, run.views
    transaction, evaluate, execute = run.graph.transaction, engine.evaluate, engine.execute
    for index in range(start, stop):
        kind, payload = bound[index]
        t0 = tm = now()
        try:
            if kind == "tx":
                t0 = now()
                with transaction():
                    for call, args in payload:
                        call(*args)
                    tm = now()
            elif kind == "auto":
                call, args = payload
                t0 = now()
                call(*args)
            elif kind == "read_view":
                t0 = now()
                for slot in payload:
                    views[slot].rows()
            elif kind == "read_eval":
                text, params = payload
                t0 = now()
                len(evaluate(text, params))
            elif kind == "execute":
                text, params = payload
                t0 = now()
                execute(text, params)
            else:  # lifecycle: a binding leaves, a fresh one registers
                old, new, key, params = payload
                run.retire(old)
                text = run.queries[key]
                t0 = now()
                views.pop(old).detach()
                tm = now()
                view = engine.register(text, params)
                log = run.logs[new] = []
                view.on_change(log.append)
            t1 = now()
            if kind == "lifecycle":
                run.adopt(new, key, params, view)
        except Exception as exc:  # noqa: BLE001 - counted, reported, not fatal
            t1 = now()
            run.fail(f"unit {index} ({kind}) raised {exc!r}")
        t0s[index], tms[index], t1s[index] = t0, tm, t1
        if after_unit is not None:
            after_unit(kind)
        if index % pace_every == 0:
            run.paces.append((index, host_pace()))


# -- oracle gate ----------------------------------------------------------------


def check_views(run: Run, slots, perturb: bool = False) -> None:
    """Every view in *slots* equals recomputation on the current graph."""
    evaluate = run.engine.evaluate
    for number, slot in enumerate(slots):
        key, params = run.specs[slot]
        began = now()
        expected = evaluate(run.queries[key], params, use_views=False).multiset()
        run.recompute_seconds += now() - began
        if perturb and number == 0:
            expected[("injected-oracle-fault",)] = 1
        run.attempted += 1
        if run.views[slot].multiset() != expected:
            run.fail(f"view {slot} differs from recomputation")


def check_reads(run: Run) -> None:
    """Every distinct one-shot read equals its recomputation."""
    seen = set()
    for kind, payload, _ in run.inputs["units"]:
        if kind != "read_eval":
            continue
        key, params = payload
        mark = (key, str(params))
        if mark in seen:
            continue
        seen.add(mark)
        text = run.queries[key]
        served = run.engine.evaluate(text, params).rows()
        began = now()
        expected = run.engine.evaluate(text, params, use_views=False).rows()
        run.recompute_seconds += now() - began
        run.attempted += 1
        if served != expected:
            run.fail(f"read {key} differs from recomputation")


def check_streams(run: Run) -> None:
    """Every ``on_change`` stream replays its view from initial to final."""
    streams = list(run.retired)
    for slot, view in run.views.items():
        streams.append((slot, run.initial[slot], run.logs[slot], view.multiset()))
    for slot, initial, log, final in streams:
        state = dict(initial)
        for delta in log:
            for row, multiplicity in delta.items():
                count = state.get(row, 0) + multiplicity
                if count:
                    state[row] = count
                else:
                    del state[row]
        run.attempted += 1
        if state != final:
            run.fail(f"on_change stream of {slot} does not replay to its view")


def checkpoint(run: Run, rng: random.Random | None, final: bool = False, perturb=False):
    """One oracle checkpoint; mid-run ones sample on ``bindings.churn``."""
    slots = list(run.views)
    if rng is not None and len(slots) > CHURN_SAMPLE:
        slots = rng.sample(slots, CHURN_SAMPLE)
    check_views(run, slots, perturb)
    if run.inputs["workload"] == "snb.reads":
        check_reads(run)
    if final:
        check_streams(run)
        run.attempted += 1
        found = [run.graph.vertex_count, run.graph.edge_count]
        if found != run.inputs["final_graph"]:
            run.fail(f"replayed graph {found} != recorded {run.inputs['final_graph']}")


def timed_phase(run: Run, bound: list, seed: int, after_unit=None, gate: bool = True):
    """Replay every unit, pausing for oracle checkpoints between slices."""
    count = len(bound)
    times = ([0.0] * count, [0.0] * count, [0.0] * count)
    cuts = [int(count * share) for share in CHECKPOINTS] if gate else []
    sampler = random.Random(seed) if run.inputs["workload"] == "bindings.churn" else None
    gc.collect()
    start = 0
    for cut in cuts + [count]:
        replay(run, bound, start, cut, times, after_unit)
        run.attempted += cut - start
        if cut < count:
            checkpoint(run, sampler)
        start = cut
    return times


# -- metrics --------------------------------------------------------------------


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def unit_paces(paces: list[tuple[int, float]], count: int) -> list[float]:
    """The host pace each unit ran at: the latest sample at or before it,
    each sample smoothed by the median of its five-sample neighbourhood."""
    smooth = [
        statistics.median(pace for _, pace in paces[max(0, at - 2) : at + 3])
        for at in range(len(paces))
    ]
    result, at = [], 0
    for index in range(count):
        while at + 1 < len(paces) and paces[at + 1][0] <= index:
            at += 1
        result.append(smooth[at])
    return result


def end_to_end(run: Run, times: tuple, setup_seconds: list[float]) -> tuple[dict, dict]:
    """The seven end-to-end metrics, and the counts that explain them.

    *setup_seconds* are already at reference speed; unit durations are
    brought to it here, each by the pace sampled nearest before it.
    """
    units = run.inputs["units"]
    t0s, _, t1s = times
    paces = unit_paces(run.paces, len(units))
    warm = int(len(units) * WARMUP_SHARE)
    writes, reads = [], []
    events, busy, raw_busy = 0, 0.0, 0.0
    for index in range(warm, len(units)):
        kind, _, unit_events = units[index]
        raw = t1s[index] - t0s[index]
        duration = raw * REFERENCE_PACE_S / paces[index]
        raw_busy += raw
        busy += duration
        events += unit_events
        (writes if kind in WRITE_KINDS else reads).append(duration * 1e3)
    writes.sort()
    reads.sort()
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "events_per_s": (events / busy, "1/s"),
        "commit_ms_p50": (percentile(writes, 0.50), "ms"),
        "commit_ms_p99": (percentile(writes, 0.99), "ms"),
        "read_ms_p50": (percentile(reads, 0.50), "ms"),
        "read_ms_p99": (percentile(reads, 0.99), "ms"),
        "memory_cells": (run.engine.memory_cells(), "count"),
    }
    counts = {
        "units": len(units),
        "oracle_checks": run.attempted - len(units),
        "warmup_units": warm,
        "commit_samples": len(writes),
        "read_samples": len(reads),
        "events_timed": events,
        "timed_s": busy,
        "timed_s_as_measured": raw_busy,
        "host_pace_ms": statistics.median(pace for _, pace in run.paces) * 1e3,
        "reference_pace_ms": REFERENCE_PACE_S * 1e3,
        "setup_share": metrics["setup_s"][0] / (metrics["setup_s"][0] + busy),
        "views_live": len(run.views),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, counts


def prepare_inputs(workload, seed, seconds, smoke, inject=None) -> tuple[dict, str]:
    inputs = e2e_inputs.build_inputs(workload, seed, seconds, smoke)
    if inject == "digest":
        inputs["load"][0][2]["injected"] = True
    return inputs, e2e_inputs.check_digest(
        inputs, e2e_inputs.pin_key(workload, seed, seconds, smoke)
    )


def run_untraced(workload, seed, seconds, smoke=False, inject=None) -> dict:
    """The end-to-end run: metrics collection and tracing both off."""
    inputs, digest = prepare_inputs(workload, seed, seconds, smoke, inject)
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        run = None  # release the previous engine before building the next
        gc.collect()
        run, timing = set_up(inputs)
        setup_seconds.append(timing["seconds"])
    checkpoint(run, None)
    times = timed_phase(run, bind_units(run), seed)
    checkpoint(run, None, final=True, perturb=inject == "oracle")
    metrics, counts = end_to_end(run, times, setup_seconds)
    counts["setup_samples"] = setup_seconds
    return finish(run, metrics, counts, digest)


def finish(run: Run, metrics: dict, counts: dict, digest: str) -> dict:
    """The result object both kinds of run report."""
    return {
        "workload": run.inputs["workload"],
        "seed": run.inputs["seed"],
        "digest": digest,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:10],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "counts": counts,
    }
