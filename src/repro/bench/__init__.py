"""Benchmark helpers shared by the ``benchmarks/paper/`` scripts."""

from .harness import Timer, format_table, speedup

__all__ = ["Timer", "format_table", "speedup"]
