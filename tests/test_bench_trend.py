"""Tests for the CI benchmark trend gate (``benchmarks/bench_trend.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_trend",
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trend.py",
)
bench_trend = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_trend)


def point(experiment, **metrics):
    return {"experiment": experiment, **metrics}


def write_point(directory: Path, data: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{data['experiment']}.json"
    path.write_text(json.dumps(data) + "\n")


class TestRegression:
    def test_higher_is_better(self):
        assert bench_trend.regression(2.0, 1.0, "up") == pytest.approx(0.5)
        assert bench_trend.regression(2.0, 3.0, "up") == pytest.approx(-0.5)

    def test_lower_is_better(self):
        assert bench_trend.regression(1.0, 1.5, "down") == pytest.approx(0.5)
        assert bench_trend.regression(1.0, 0.5, "down") == pytest.approx(-0.5)

    def test_zero_baseline_never_regresses(self):
        assert bench_trend.regression(0.0, 5.0, "up") == 0.0


class TestCompare:
    BASELINES = {
        "sharing": {"memory_ratio": 2.4, "throughput_speedup": 1.9},
        "param_sharing": {
            "memory_ratio": 8.9,
            "shared_layer_growth": 1.0,
            "throughput_speedup": 2.7,
            "registration_speedup": 1.0,
        },
    }

    def fresh(self, **overrides):
        points = {
            name: point(name, **dict(metrics))
            for name, metrics in self.BASELINES.items()
        }
        for name, metrics in overrides.items():
            points[name].update(metrics)
        return points

    def test_identical_points_pass(self):
        failures, warnings = bench_trend.compare(self.BASELINES, self.fresh())
        assert failures == []
        assert warnings == []

    def test_improvements_pass(self):
        fresh = self.fresh(
            sharing={"memory_ratio": 3.0},
            param_sharing={"shared_layer_growth": 0.8},
        )
        failures, _ = bench_trend.compare(self.BASELINES, fresh)
        assert failures == []

    def test_hard_regression_fails(self):
        fresh = self.fresh(sharing={"memory_ratio": 1.0})
        failures, _ = bench_trend.compare(self.BASELINES, fresh)
        assert len(failures) == 1
        assert "sharing.memory_ratio" in failures[0]

    def test_lower_is_better_metric_fails_when_it_grows(self):
        fresh = self.fresh(param_sharing={"shared_layer_growth": 1.9})
        failures, _ = bench_trend.compare(self.BASELINES, fresh)
        assert len(failures) == 1
        assert "shared_layer_growth" in failures[0]

    def test_timing_regression_only_warns(self):
        fresh = self.fresh(sharing={"throughput_speedup": 0.5})
        failures, warnings = bench_trend.compare(self.BASELINES, fresh)
        assert failures == []
        assert len(warnings) == 1
        assert "sharing.throughput_speedup" in warnings[0]

    def test_missing_fresh_point_fails(self):
        fresh = self.fresh()
        del fresh["sharing"]
        failures, _ = bench_trend.compare(self.BASELINES, fresh)
        assert any("sharing: no fresh point" in line for line in failures)

    def test_missing_metric_fails(self):
        fresh = self.fresh()
        del fresh["sharing"]["memory_ratio"]
        failures, _ = bench_trend.compare(self.BASELINES, fresh)
        assert any("memory_ratio: metric missing" in f for f in failures)

    def test_unbaselined_experiment_is_skipped(self):
        baselines = {"sharing": dict(self.BASELINES["sharing"])}
        failures, _ = bench_trend.compare(baselines, self.fresh())
        assert failures == []

    def test_regression_within_tolerance_passes(self):
        fresh = self.fresh(sharing={"memory_ratio": 2.4 * 0.75})
        failures, _ = bench_trend.compare(self.BASELINES, fresh)
        assert failures == []
        failures, _ = bench_trend.compare(
            self.BASELINES, fresh, tolerance=0.10
        )
        assert len(failures) == 1


class TestMain:
    def seed(self, tmp_path: Path):
        fresh = tmp_path / "fresh"
        for name, metrics in TestCompare.BASELINES.items():
            write_point(fresh, point(name, **metrics))
        baseline = tmp_path / "baselines.json"
        baseline.write_text(json.dumps(TestCompare.BASELINES) + "\n")
        return fresh, baseline

    def test_pass_exit_zero(self, tmp_path, capsys):
        fresh, baseline = self.seed(tmp_path)
        status = bench_trend.main(
            ["--fresh", str(fresh), "--baseline", str(baseline)]
        )
        assert status == 0
        assert "trend gate passed" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        fresh, baseline = self.seed(tmp_path)
        write_point(fresh, point("sharing", memory_ratio=1.0,
                                 throughput_speedup=1.9))
        status = bench_trend.main(
            ["--fresh", str(fresh), "--baseline", str(baseline)]
        )
        assert status == 1
        assert "REGRESSION: sharing.memory_ratio" in capsys.readouterr().out

    def test_update_writes_declared_metrics_only(self, tmp_path):
        fresh, baseline = self.seed(tmp_path)
        write_point(
            fresh,
            point("sharing", memory_ratio=9.9, throughput_speedup=2.0,
                  baseline_seconds=1.23),
        )
        status = bench_trend.main(
            ["--fresh", str(fresh), "--baseline", str(baseline), "--update"]
        )
        assert status == 0
        written = json.loads(baseline.read_text())
        assert written["sharing"] == {
            "memory_ratio": 9.9,
            "throughput_speedup": 2.0,
        }  # undeclared keys (raw timings) are not baselined


class TestCommittedBaselines:
    def test_file_covers_every_declared_experiment(self):
        committed = json.loads(bench_trend.BASELINE_PATH.read_text())
        for experiment, metrics in bench_trend.HARD_METRICS.items():
            assert experiment in committed, experiment
            for metric in metrics:
                assert metric in committed[experiment], (experiment, metric)
                assert committed[experiment][metric] > 0

    def test_hard_metrics_are_ratios_not_timings(self):
        for metrics in bench_trend.HARD_METRICS.values():
            for metric in metrics:
                assert "seconds" not in metric and "speedup" not in metric
