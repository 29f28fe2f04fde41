"""``setup.py`` declares the package that ``pip install -e .`` installs."""

import runpy
import subprocess
import sys
from pathlib import Path

import setuptools

ROOT = Path(__file__).resolve().parent.parent


def test_setup_names_the_package():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["repro"]


def test_declared_packages_are_the_packages_under_src(monkeypatch):
    declared = {}
    monkeypatch.setattr(setuptools, "setup", lambda **kwargs: declared.update(kwargs))
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(ROOT / "setup.py"), run_name="__main__")
    src = ROOT / "src"
    on_disk = {
        ".".join(init.parent.relative_to(src).parts)
        for init in (src / "repro").rglob("__init__.py")
    }
    assert declared["package_dir"] == {"": "src"}
    assert set(declared["packages"]) == on_disk
    assert "repro.rete.nodes" in on_disk
