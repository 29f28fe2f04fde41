"""Benchmark trend gate: fail CI on regressions against committed baselines.

CI runs the memory-sensitive benches in ``--smoke`` mode with ``--out``
pointing at a scratch directory, then calls this script to compare the
fresh ``BENCH_*.json`` points against ``benchmarks/trend_baselines.json``.

Smoke workloads are seeded and fixed-size, so their *memory* metrics
(cell-count and growth ratios) are exactly reproducible run to run: a
drop beyond the tolerance is a structural regression, not runner noise,
and fails the build.  Timing-derived metrics (the ``*_speedup`` keys)
vary with machine load, so they only warn.

Usage::

    python benchmarks/bench_trend.py --fresh DIR [--baseline FILE]
        [--tolerance 0.30] [--update]

``--update`` rewrites the baseline file from the fresh points (run it
after intentionally changing a smoke workload, and commit the result).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "trend_baselines.json"
TOLERANCE = 0.30

#: metric -> direction, where "up" means larger is better.  Hard metrics
#: are deterministic at the smoke scale (pure cell arithmetic over seeded
#: graphs): any regression past the tolerance fails the gate.
HARD_METRICS: dict[str, dict[str, str]] = {
    "sharing": {"memory_ratio": "up"},
    "param_sharing": {"memory_ratio": "up", "shared_layer_growth": "down"},
}

#: timing-derived metrics: compared with the same tolerance but only
#: warned about, because smoke runs on shared CI runners are noisy.
SOFT_METRICS: dict[str, dict[str, str]] = {
    "sharing": {"throughput_speedup": "up"},
    "param_sharing": {"throughput_speedup": "up", "registration_speedup": "up"},
}


def regression(baseline: float, fresh: float, direction: str) -> float:
    """Fractional regression of *fresh* against *baseline* (≤0 = no worse)."""
    if baseline == 0:
        return 0.0
    if direction == "up":
        return (baseline - fresh) / abs(baseline)
    return (fresh - baseline) / abs(baseline)


def load_points(directory: Path) -> dict[str, dict]:
    """All ``BENCH_*.json`` points in *directory*, keyed by experiment."""
    points: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        points[data["experiment"]] = data
    return points


def compare(
    baselines: dict[str, dict],
    fresh: dict[str, dict],
    tolerance: float = TOLERANCE,
) -> tuple[list[str], list[str]]:
    """Returns ``(failures, warnings)`` as human-readable lines."""
    failures: list[str] = []
    warnings: list[str] = []
    for experiment in sorted(HARD_METRICS):
        if experiment not in baselines:
            continue  # no committed baseline yet — nothing to hold it to
        if experiment not in fresh:
            failures.append(
                f"{experiment}: no fresh point (did the bench run with --out?)"
            )
            continue
        base_point, fresh_point = baselines[experiment], fresh[experiment]
        checks = [
            (HARD_METRICS[experiment], failures),
            (SOFT_METRICS.get(experiment, {}), warnings),
        ]
        for metrics, sink in checks:
            for metric, direction in sorted(metrics.items()):
                if metric not in base_point or metric not in fresh_point:
                    failures.append(f"{experiment}.{metric}: metric missing")
                    continue
                drop = regression(
                    base_point[metric], fresh_point[metric], direction
                )
                if drop > tolerance:
                    sink.append(
                        f"{experiment}.{metric}: baseline "
                        f"{base_point[metric]:.3f} -> fresh "
                        f"{fresh_point[metric]:.3f} "
                        f"({drop:+.1%} regression, tolerance {tolerance:.0%})"
                    )
    return failures, warnings


def baselines_from_points(points: dict[str, dict]) -> dict[str, dict]:
    """Project *points* down to the declared trend metrics."""
    baselines: dict[str, dict] = {}
    for experiment, point in sorted(points.items()):
        declared = {
            **HARD_METRICS.get(experiment, {}),
            **SOFT_METRICS.get(experiment, {}),
        }
        if declared:
            baselines[experiment] = {
                metric: point[metric] for metric in sorted(declared)
            }
    return baselines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh smoke bench points against the committed "
        "trend baselines"
    )
    parser.add_argument(
        "--fresh", metavar="DIR", required=True,
        help="directory of BENCH_*.json points written by --smoke --out runs",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=str(BASELINE_PATH),
        help="committed baseline file (default: benchmarks/trend_baselines.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE, metavar="FRACTION",
        help="fractional regression allowed before failing (default: 0.30)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline file from the fresh points and exit",
    )
    args = parser.parse_args(argv)

    fresh = load_points(Path(args.fresh))
    baseline_path = Path(args.baseline)
    if args.update:
        baselines = baselines_from_points(fresh)
        baseline_path.write_text(json.dumps(baselines, indent=2) + "\n")
        print(f"wrote {baseline_path} ({len(baselines)} experiments)")
        return 0

    baselines = json.loads(baseline_path.read_text())
    failures, warnings = compare(baselines, fresh, args.tolerance)
    for line in warnings:
        print(f"warning (timing, not gated): {line}")
    for line in failures:
        print(f"REGRESSION: {line}")
    if failures:
        print(f"\ntrend gate failed: {len(failures)} regression(s)")
        return 1
    checked = sum(len(m) for e, m in HARD_METRICS.items() if e in baselines)
    print(
        f"trend gate passed: {checked} deterministic metrics within "
        f"{args.tolerance:.0%} of baseline ({len(warnings)} timing warnings)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
