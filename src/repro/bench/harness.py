"""Timing and table rendering for the paper-reproduction scripts.

Every script in ``benchmarks/paper/`` reports through these helpers so the
output format is uniform: one fixed-width table per experiment, with the
incremental engine and the full-recomputation baseline side by side where
the experiment compares them.
"""

from __future__ import annotations

import time
from typing import Any, Sequence


class Timer:
    """``with Timer() as t: ...; t.seconds``"""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str | None = None
) -> str:
    """Fixed-width table; floats rendered in engineering-friendly units."""

    def cell(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) < 1e-3:
                return f"{value * 1e6:.1f}µs"
            if abs(value) < 1:
                return f"{value * 1e3:.2f}ms"
            return f"{value:.3f}s"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def speedup(baseline_seconds: float, subject_seconds: float) -> str:
    """Human-readable baseline/subject ratio (e.g. '37.2x')."""
    if subject_seconds <= 0:
        return "inf"
    return f"{baseline_seconds / subject_seconds:.1f}x"
