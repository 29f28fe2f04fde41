"""The paper-reproduction scripts in ``benchmarks/paper/`` still run.

Each script prints the table of one of the paper's claims and checks its
views against recomputation (or the two ablation arms against each other)
before it exits, so a clean exit with a table is the whole contract.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks" / "paper").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
def test_script_prints_its_table(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # format_table's header row, then its `---+---` rule
    assert any(
        " | " in header and set(rule) <= {"-", "+"} and "-+-" in rule
        for header, rule in zip(lines, lines[1:])
    ), result.stdout
