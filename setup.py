"""Package metadata for ``pip install -e .`` (or ``python setup.py develop``
where pip's isolated build is unavailable).  The library is pure Python
with no runtime dependencies; its packages live under ``src/``."""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
