"""Production node: the materialised view at the network's root."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Callable

from ...eval.results import row_order_key
from ...graph.values import PathValue
from ..deltas import (
    ColumnDelta,
    Delta,
    _KeyProbe,
    as_row_delta,
    bag_insert,
    merged,
)
from .base import Node

ChangeCallback = Callable[[Delta], None]

#: cell types whose ``==``-equal values are type-identical and whose sort
#: keys are totally ordered — the domain in which splicing a changed row
#: into the listing is guaranteed to match a full sort row for row
_PLAIN = frozenset((int, str, type(None)))
_INT = frozenset((int,))


def _plain(rows) -> bool:
    """Whether every cell of *rows* lies in the splice domain.

    That is a ``_PLAIN`` value or a path whose vertex ids are all exactly
    ``int``: its sort key is then a tuple of int keys, and ``==``-equal
    paths share it.  Paths with equal keys but different edges (parallel
    edges) are caught by the splice's run check and force a rebuild.
    """
    if _PLAIN.issuperset(map(type, chain.from_iterable(rows))):
        return True
    return all(
        type(cell) in _PLAIN
        or (type(cell) is PathValue and _INT.issuperset(map(type, cell.vertices)))
        for cell in chain.from_iterable(rows)
    )


class ProductionNode(Node):
    """Holds the view's bag of result rows and notifies subscribers.

    In per-event mode every applied delta fires the change callbacks
    immediately.  During a batch (``begin_batch`` … ``end_batch``) the
    partial output deltas are buffered instead and the callbacks fire
    exactly once, at ``end_batch``, with the consolidated net delta — or
    not at all when the batch nets to nothing.

    The first :meth:`sorted_rows` builds the *canonical listing* — the
    bag expanded in :func:`~repro.eval.results.canonical_order`, beside
    each row's sort key — and from then on ``apply`` notes every row whose
    count changed, so the next read splices just those rows back in.
    """

    def __init__(self, schema):
        super().__init__(schema)
        self.results: dict[tuple, int] = {}
        self._callbacks: list[ChangeCallback] = []
        self._batch_depth = 0
        self._pending: list[Delta] = []
        self._listing: list[tuple] | None = None
        self._keys: list[tuple] = []
        #: rows whose count changed since the listing was last brought up
        #: to date; ``None`` while there is no listing to keep
        self._changed: dict[tuple, None] | None = None
        #: every cell of the listing lies in the splice domain (``_plain``)
        self._plain = False
        #: reads that spliced pending changes in / that sorted from scratch
        self.listing_splices = 0
        self.listing_rebuilds = 0

    def on_change(self, callback: ChangeCallback) -> None:
        self._callbacks.append(callback)

    def begin_batch(self) -> None:
        """Start buffering change notifications (re-entrant)."""
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Fire callbacks once with the batch's net output delta."""
        self._batch_depth -= 1
        if self._batch_depth > 0:
            return
        pending, self._pending = self._pending, []
        net = merged(pending)
        if net:
            for callback in self._callbacks:
                callback(net)

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        # transition-sensitive boundary: consolidate columnar batches so a
        # transient delete/insert pair can never trip the negative check
        delta = as_row_delta(delta)
        real = Delta()
        changed = self._changed
        for row, multiplicity in delta.items():
            before = self.results.get(row, 0)
            after = bag_insert(self.results, row, multiplicity)
            if after < 0:
                raise AssertionError(
                    f"view multiplicity went negative for row {row!r}"
                )
            if after != before:
                real.add(row, after - before)
                if changed is not None:
                    changed[row] = None
        if changed is not None and len(changed) > len(self._listing):
            self._drop_listing()  # the next read's sort is the cheaper way
        if real:
            if self._batch_depth > 0:
                self._pending.append(real)
            else:
                for callback in self._callbacks:
                    callback(real)

    # -- the canonical listing -------------------------------------------------

    def sorted_rows(self) -> list[tuple]:
        """The bag expanded in canonical order, as a fresh list.

        Costs the rows changed since the previous call; a full sort only
        on the first call, after many changes, when a changed row or the
        listing holds a value outside ``int``/``str``/``None``/int-vertex
        paths, or when a changed path ties another's key (parallel edges).
        """
        if self._listing is None or (self._changed and not self._splice()):
            self._rebuild()
        return list(self._listing)

    def _rebuild(self) -> None:
        # exactly canonical_order (the same keys, compared in the same order)
        expanded = [row for row, m in self.results.items() for _ in range(m)]
        pairs = sorted(
            zip(map(row_order_key, expanded), expanded), key=itemgetter(0)
        )
        self._keys = [key for key, _ in pairs]
        self._listing = [row for _, row in pairs]
        self._changed = {}
        self._plain = _plain(self.results)
        self.listing_rebuilds += 1

    def _splice(self) -> bool:
        """Bring the listing up to date row by row; ``False`` when that
        cannot be guaranteed to equal the full sort (the caller rebuilds)."""
        if not self._plain:
            return False
        listing, keys, results = self._listing, self._keys, self.results
        for row in self._changed:
            probe = _KeyProbe(row)
            count = results.get(probe, 0)
            stored = row if probe.stored is None else probe.stored
            if not _plain((row, stored)):
                return False
            key = row_order_key(stored)
            lo = bisect_left(keys, key)
            hi = bisect_right(keys, key, lo)
            if (
                (lo and not keys[lo - 1] < key)
                or (hi < len(keys) and not key < keys[hi])
                or listing[lo:hi].count(stored) != hi - lo
            ):
                return False
            listing[lo:hi] = (stored,) * count
            keys[lo:hi] = (key,) * count
        self._changed = {}
        self.listing_splices += 1
        return True

    def _drop_listing(self) -> None:
        self._listing = self._changed = None
        self._keys = []

    @property
    def listing_rows(self) -> int:
        """Rows held by the read listing (0 until the view is read)."""
        return 0 if self._listing is None else len(self._listing)

    def dispose(self) -> None:
        self._drop_listing()

    def multiset(self) -> dict[tuple, int]:
        return dict(self.results)

    def memory_size(self) -> int:
        return len(self.results)

    def memory_cells(self) -> int:
        return sum(len(row) for row in self.results)
