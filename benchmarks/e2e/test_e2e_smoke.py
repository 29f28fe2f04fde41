"""Tier-1 smoke test of the end-to-end benchmark: structure, not numbers.

Runs ``run.py --smoke`` in this process (every workload shrunk to well
under a second, one untraced and one traced pass each) and checks that
what ``BENCHMARK.json`` declares is what the benchmark emits, that the
oracle gate ran and can fail, that a tampered op list trips the digest
check, and that the traced pass leaves a well-formed span file.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as e2e_run  # noqa: E402

SPEC = e2e_run.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
ONE_RUN = ["--workload", "snb.mix", "--trace", "0", "--smoke"]


@pytest.fixture(scope="module")
def smoke() -> dict:
    assert e2e_run.main(["--smoke"]) == 0
    return json.loads((HERE / "out" / "smoke.json").read_text())


def test_declared_names_are_well_formed():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_declared_workload_and_metric_is_emitted(smoke):
    assert list(smoke["workloads"]) == [entry["name"] for entry in SPEC["workloads"]]
    for workload, entry in smoke["workloads"].items():
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for name, data in entry["end_to_end"].items():
            assert data["median"] > 0, (workload, name)


def test_oracle_gate_ran_and_passed(smoke):
    for workload, entry in smoke["workloads"].items():
        assert entry["counts"]["oracle_checks"] > 0, workload
        assert entry["failed_ops"] == 0, entry["failures"]


def test_injected_oracle_mismatch_fails_the_command(capsys):
    assert e2e_run.main(ONE_RUN + ["--inject", "oracle"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_tampered_op_list_trips_the_digest_check(capsys):
    with pytest.raises(ValueError, match="digest mismatch"):
        e2e_run.main(ONE_RUN + ["--inject", "digest"])
    assert '"metrics"' not in capsys.readouterr().out


def test_traced_pass_writes_well_formed_spans(smoke):
    for workload, entry in smoke["workloads"].items():
        trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
        assert trace["fields"] == ["id", "op", "name", "start_s", "end_s", "parent"]
        spans = trace["spans"]
        ids = {span[0] for span in spans}
        assert len(ids) == len(spans) > entry["counts"]["units"]
        for _, op, name, start, end, parent in spans:
            assert parent is None or parent in ids
            assert start <= end and op >= 0
            assert name == "setup" or "." in name
