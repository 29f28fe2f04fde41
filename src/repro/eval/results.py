"""Query result containers.

A :class:`ResultTable` is a bag (or, for ordered one-shot queries, a
sequence) of rows aligned with a schema.  Entity attributes hold bare ids;
rendering helpers resolve them against the originating graph on demand.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from ..algebra.schema import AttrKind, Schema
from ..graph.graph import PropertyGraph
from ..graph.values import order_key


def row_order_key(row: tuple) -> tuple:
    """The sort key of one row in :func:`canonical_order`."""
    return tuple(map(order_key, row))


def canonical_order(rows: Iterable[tuple]) -> list[tuple]:
    """Deterministic ordering of rows for comparison and display."""
    return sorted(rows, key=row_order_key)


def sort_pass(rows: list[tuple], keys: list, ascending: bool) -> list[tuple]:
    """One ``ORDER BY`` item applied to *rows*, given each row's *keys*.

    Stable, descending included, so applying the items last to first sorts
    by all of them.  Within exactly ``int`` (or exactly ``str``) keys
    :func:`order_key` is order-isomorphic to the value itself, so those sort
    on the values; anything else — bool, float/NaN, None, mixed, nested —
    sorts on ``order_key``.
    """
    kinds = set(map(type, keys))
    if kinds != {int} and kinds != {str}:
        keys = list(map(order_key, keys))
    order = sorted(range(len(rows)), key=keys.__getitem__, reverse=not ascending)
    return [rows[i] for i in order]


class ResultTable:
    """An immutable query result.

    ``ordered`` is True only for one-shot queries with ORDER BY/SKIP/LIMIT,
    where row order is semantically meaningful (the incrementally
    maintainable fragment never produces ordered results, per the paper).
    ``canonical`` says unordered *rows* already are in canonical order (a
    maintained view's listing), so no read sorts them again.
    """

    def __init__(
        self,
        schema: Schema,
        rows: list[tuple],
        *,
        ordered: bool = False,
        canonical: bool = False,
        graph: PropertyGraph | None = None,
    ):
        self._schema = schema
        self._rows = rows
        self._ordered = ordered
        self._graph = graph
        # the presentation order, sorted at most once (the table is immutable)
        self._listed: list[tuple] | None = rows if ordered or canonical else None

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def columns(self) -> tuple[str, ...]:
        return self._schema.names

    @property
    def ordered(self) -> bool:
        return self._ordered

    def rows(self) -> list[tuple]:
        """Rows with multiplicity (a bag expanded to a list).

        Unordered results are returned in canonical order so the same bag
        always lists identically.  Each call returns a fresh list.
        """
        return list(self._listing())

    def _listing(self) -> list[tuple]:
        if self._listed is None:
            self._listed = canonical_order(self._rows)
        return self._listed

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._listing())

    def multiset(self) -> dict[tuple, int]:
        """The result as a multiplicity map (basis for bag comparison)."""
        out: dict[tuple, int] = {}
        for row in self._rows:
            out[row] = out.get(row, 0) + 1
        return out

    def records(self) -> list[dict[str, Any]]:
        """Rows as dicts keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self._listing()]

    def single(self) -> tuple:
        """The only row; raises if the result does not have exactly one."""
        rows = self._listing()
        if len(rows) != 1:
            raise ValueError(f"expected exactly one row, got {len(rows)}")
        return rows[0]

    def scalar(self) -> Any:
        """The only value of the only row."""
        row = self.single()
        if len(row) != 1:
            raise ValueError(f"expected exactly one column, got {len(row)}")
        return row[0]

    # -- rendering ---------------------------------------------------------

    def _render_value(self, value: Any, kind: AttrKind) -> str:
        if value is None:
            return "null"
        if kind is AttrKind.VERTEX and self._graph is not None and isinstance(value, int):
            if self._graph.has_vertex(value):
                labels = "".join(f":{l}" for l in sorted(self._graph.labels_of(value)))
                return f"({value}{labels})"
        if kind is AttrKind.EDGE and self._graph is not None and isinstance(value, int):
            if self._graph.has_edge(value):
                return f"[{value}:{self._graph.type_of(value)}]"
        return repr(value)

    def to_text(self, limit: int | None = 20) -> str:
        """A fixed-width table rendering (paper-style result tables)."""
        kinds = [a.kind for a in self._schema]
        rows = self._listing()
        shown = rows if limit is None else rows[:limit]
        cells = [
            [self._render_value(v, k) for v, k in zip(row, kinds)] for row in shown
        ]
        headers = list(self.columns)
        widths = [
            max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row_cells in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
        if limit is not None and len(rows) > limit:
            lines.append(f"... ({len(rows) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ResultTable({len(self._rows)} rows, columns={self.columns})"


def bag_equal(a: Mapping[tuple, int], b: Mapping[tuple, int]) -> bool:
    """Multiset equality ignoring zero-count entries."""
    a_clean = {k: v for k, v in a.items() if v}
    b_clean = {k: v for k, v in b.items() if v}
    return a_clean == b_clean
