"""The repo's end-to-end benchmark: one command, four workloads.

One run (what ``BENCHMARK.json``'s command is invoked as)::

    python3 benchmarks/e2e/run.py --workload snb.mix --seed 1 --seconds 6 --trace 0

prints the run's numbers and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which also
prints the two where-the-time-goes tables and writes
``benchmarks/e2e/out/trace-<workload>.json``).

The whole benchmark::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--workload NAME]
                                  [--smoke] [--selfcheck]

runs every (workload, repeat) in a fresh child process, one after another,
plus one traced pass per workload, and reports each metric as the median
over repeats with quartiles.  Every run is gated on the recomputation
oracle; any failed operation, oracle mismatch or input-digest mismatch
makes the command exit non-zero.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no src/repro under {ROOT}; run from a checkout of the repo")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import e2e_harness  # noqa: E402
import e2e_inputs  # noqa: E402
import e2e_layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_REPEATS = 5


def declared(trace: bool) -> list[dict]:
    return SPEC["per_layer" if trace else "end_to_end"]


def one_run(workload, seed, seconds, trace, smoke=False, inject=None) -> dict:
    """Run once in this process; the metric set must be the declared one."""
    runner = e2e_layers.run_traced if trace else e2e_harness.run_untraced
    result = runner(workload, seed, seconds, smoke, inject)
    wanted = {metric["name"]: metric["unit"] for metric in declared(trace)}
    found = {name: data["unit"] for name, data in result["metrics"].items()}
    if found != wanted:
        raise SystemExit(
            f"run.py: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(found.items()) ^ set(wanted.items()))}"
        )
    return result


def print_run(result: dict) -> None:
    """Human-readable report of one run, then the contract's last line."""
    for table in result.get("tables", ()):
        print(table, end="\n\n")
    print(f"{result['workload']}  seed={result['seed']}  digest={result['digest'][:16]}")
    for name, data in result["metrics"].items():
        print(f"  {name:42s} {data['value']:>16.6g} {data['unit']}")
    for name, value in result["counts"].items():
        print(f"  ({name} = {value})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  failed_ops = {result['failed']} of attempted_ops = {result['attempted']}")
    print("detail: " + json.dumps(result))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def child_run(workload, seed, seconds, trace, smoke, inject) -> dict:
    """One run in a fresh interpreter; returns its ``detail`` object."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(
        command, capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": "0"}
    )
    detail = [line for line in done.stdout.splitlines() if line.startswith("detail: ")]
    if not detail:
        raise SystemExit(
            f"run.py: {workload} run produced no result (exit {done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(detail[-1][len("detail: "):])


def host() -> dict:
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def suite(args, label: str = "") -> dict:
    """Every selected workload: ``--repeats`` untraced runs + one traced."""
    workloads = [args.workload] if args.workload else list(e2e_inputs.WORKLOADS)
    report = {"host": host(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        # smoke runs share this process: they assert structure, not numbers
        launch = one_run if args.smoke else child_run
        runs = [
            launch(workload, args.seed, args.seconds, False, args.smoke, args.inject)
            for _ in range(1 if args.smoke else args.repeats)
        ]
        traced = launch(workload, args.seed, args.seconds, True, args.smoke, args.inject)
        entry = report["workloads"][workload] = {
            "digest": runs[0]["digest"],
            "failed_ops": sum(run["failed"] for run in runs + [traced]),
            "attempted_ops": runs[0]["attempted"],
            "failures": [f for run in runs + [traced] for f in run["failures"]],
            "end_to_end": {},
            "per_layer": {n: d["value"] for n, d in traced["metrics"].items()},
            "counts": runs[0]["counts"],
            "setup_share": statistics.median(r["counts"]["setup_share"] for r in runs),
            "peak_rss_mb": max(run["counts"]["peak_rss_mb"] for run in runs),
        }
        print(f"\n== {workload}{label}: {len(runs)} run(s), seed {args.seed}, "
              f"digest {entry['digest'][:16]} ==")
        print(f"  {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'iqr/med':>8s} {'bound':>6s}  n")
        for metric in declared(False):
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "values": values,
                "spread": (q3 - q1) / median,
            }
            print(f"  {name:16s} {metric['unit']:6s} {median:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {100 * (q3 - q1) / median:7.2f}% {100 * metric['bound']:5.0f}%  {len(values)}")
        counts = entry["counts"]
        print(f"  failed_ops = {entry['failed_ops']} of attempted_ops = "
              f"{entry['attempted_ops']} per run; commit samples {counts['commit_samples']}, "
              f"read samples {counts['read_samples']}, warm-up units {counts['warmup_units']}")
        print(f"  set-up is {100 * entry['setup_share']:.1f} % of set-up + timed phase; "
              f"peak_rss_mb = {entry['peak_rss_mb']:.1f} (advisory, not gated)")
        print()
        for table in traced.get("tables", ()):
            print(table, end="\n\n")
        print("  per-layer metrics (traced pass):")
        for metric in declared(True):
            print(f"    {metric['name']:42s} {entry['per_layer'][metric['name']]:>14.6g}"
                  f" {metric['unit']}")
    return report


def print_predictions(report: dict) -> None:
    """The README's interaction predictions, checked on this report."""
    found = report["workloads"]
    checks = [
        ("train.repair", "set-up > 40 % of the run", lambda w: w["setup_share"] > 0.40),
        ("snb.mix", "set-up < 25 % of the run", lambda w: w["setup_share"] < 0.25),
        ("bindings.churn", "rete.batch.coalesce_s is zero",
         lambda w: w["per_layer"]["rete.batch.coalesce_s"] == 0),
        ("snb.reads", "views.hit_ratio >= 0.95",
         lambda w: w["per_layer"]["views.hit_ratio"] >= 0.95),
    ]
    print("\ninteraction predictions:")
    for workload, claim, holds in checks:
        if workload in found:
            verdict = "holds" if holds(found[workload]) else "DOES NOT HOLD"
            print(f"  {workload}: {claim}: {verdict}")


def failed(report: dict) -> bool:
    return any(entry["failed_ops"] for entry in report["workloads"].values())


def selfcheck(args) -> int:
    """A/A: two full sets of the same code must agree with themselves."""
    first, second = suite(args, " [set A]"), suite(args, " [set B]")
    verdicts = []
    print("\n== A/A self-check ==")
    for workload, a in first["workloads"].items():
        b = second["workloads"][workload]
        for metric in declared(False):
            name, bound = metric["name"], metric["bound"]
            one, two = a["end_to_end"][name], b["end_to_end"][name]
            drift = abs(one["median"] - two["median"]) / one["median"]
            if max(one["spread"], two["spread"]) > bound:
                verdict = "unresolved (spread exceeds bound: run longer or repeat more)"
            elif drift > bound:
                verdict = "DISAGREE"
            else:
                verdict = "agree"
            verdicts.append(verdict)
            print(f"  {workload:15s} {name:14s} A {one['median']:12.6g} B {two['median']:12.6g}"
                  f" drift {100 * drift:6.2f}% bound {100 * bound:3.0f}%  {verdict}")
        same = {
            "memory_cells": a["end_to_end"]["memory_cells"]["values"]
            + b["end_to_end"]["memory_cells"]["values"],
            "attempted_ops": [a["attempted_ops"], b["attempted_ops"]],
            "digest": [a["digest"], b["digest"]],
        }
        for metric in declared(True):
            if metric["unit"] in ("count", "ratio"):
                name = metric["name"]
                same[name] = [a["per_layer"][name], b["per_layer"][name]]
        for name, values in same.items():
            if len(set(values)) != 1:
                verdicts.append("DISAGREE")
                print(f"  {workload:15s} count {name} is not bit-identical: {values}")
    bad = [verdict for verdict in verdicts if verdict != "agree"]
    print(f"  {len(verdicts) - len(bad)} agree, {len(bad)} do not; "
          f"host {json.dumps(first['host'])}")
    save({"A": first, "B": second}, "selfcheck.json")
    return 1 if bad or failed(first) or failed(second) else 0


def save(report: dict, name: str) -> None:
    e2e_layers.OUT_DIR.mkdir(exist_ok=True)
    (e2e_layers.OUT_DIR / name).write_text(json.dumps(report, indent=1))
    print(f"wrote {(e2e_layers.OUT_DIR / name).relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=e2e_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=e2e_inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run once: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, structure only, < 1 s per workload")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--inject", choices=("oracle", "digest"),
                        help="inject a fault the gate must catch (exit non-zero)")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = one_run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.inject
        )
        print_run(result)
        return 0 if result["correct"] else 1
    if args.selfcheck:
        return selfcheck(args)
    report = suite(args)
    if not args.smoke:
        print_predictions(report)
    print(f"\nhost: {json.dumps(report['host'])}")
    save(report, "smoke.json" if args.smoke else "suite.json")
    return 1 if failed(report) else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order must not differ between runs or commits
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
