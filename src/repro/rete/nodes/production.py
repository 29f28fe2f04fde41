"""Production node: the materialised view at the network's root."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple

from ...algebra.expressions import EvalContext
from ...eval.results import row_order_key, sort_pass
from ...graph.values import PathValue, order_key
from ..deltas import ColumnDelta, Delta, bag_insert
from .base import Node

ChangeCallback = Callable[[Delta], None]


class _KeyProbe:
    """A dict probe that remembers which stored key it matched.

    Hashes like the tuple it wraps; the dict settles a hash match by
    comparing its stored key with the probe, which lands here (a tuple
    does not know how to compare with this class) and is where the
    stored object is captured.
    """

    __slots__ = ("key", "stored")

    def __init__(self, key: tuple):
        self.key = key
        self.stored: "tuple | None" = None

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if self.key == other:
            self.stored = other
            return True
        return False


#: cell types whose ``==``-equal values are type-identical and whose sort
#: keys are totally ordered — the domain in which splicing a changed row
#: into the listing is guaranteed to match a full sort row for row
_PLAIN = frozenset((int, str, type(None)))
_INT = frozenset((int,))

#: derived listings one production keeps beside the canonical one; reading
#: a further spec evicts the least recently read
LISTINGS_PER_PRODUCTION = 8


def _plain(rows) -> bool:
    """Whether every cell of *rows* lies in the splice domain.

    That is a ``_PLAIN`` value or a path whose vertex ids are all exactly
    ``int``: its sort key is then a tuple of int keys and its edge ids,
    and ``==``-equal paths share it.
    """
    if _PLAIN.issuperset(map(type, chain.from_iterable(rows))):
        return True
    return all(
        type(cell) in _PLAIN
        or (type(cell) is PathValue and _INT.issuperset(map(type, cell.vertices)))
        for cell in chain.from_iterable(rows)
    )


class ListingSpec(NamedTuple):
    """What a listing lists: the bag, optionally filtered, deduplicated and
    ordered.  Equal specs share one listing."""

    #: a σ's generated ``row`` function over the production's schema; only
    #: rows it maps to exactly ``True`` are listed (``None``: every row)
    predicate: Callable[[tuple, EvalContext], Any] | None = None
    #: type-exact keys of the parameters *predicate* reads
    bindings: tuple = ()
    #: list each row once (δ) instead of once per multiplicity
    distinct: bool = False
    #: ``(position, ascending)`` sort items over bare columns, most
    #: significant first; canonical order breaks their ties
    order: tuple[tuple[int, bool], ...] = ()


#: the bag expanded in canonical order: what ``View.rows()`` reads
CANONICAL = ListingSpec()


class _Descending:
    """A sort key whose order is reversed (a DESC item's key in a bisect
    key tuple, which compares items with ``==`` and then ``<``)."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __eq__(self, other: object) -> bool:
        return self.key == other.key  # type: ignore[attr-defined]

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key


def _bisect_key(order: tuple[tuple[int, bool], ...]) -> Callable[[tuple], tuple]:
    """A row's key in the total order of a listing sorted by *order*."""
    if not order:
        return row_order_key

    def key(row: tuple) -> tuple:
        items = [
            order_key(row[position]) if ascending else _Descending(order_key(row[position]))
            for position, ascending in order
        ]
        items.append(row_order_key(row))
        return tuple(items)

    return key


class _Listing:
    """One maintained listing: a spec's rows in order, beside their keys."""

    __slots__ = ("spec", "ctx", "key", "rows", "keys", "plain", "seen", "cap")

    def __init__(self, spec: ListingSpec, parameters: Mapping[str, Any]):
        self.spec = spec
        self.ctx = EvalContext(dict(parameters))
        self.key = _bisect_key(spec.order)
        self.rows: list[tuple] = []
        self.keys: list[tuple] = []
        #: every listed cell lies in the splice domain (``_plain``)
        self.plain = False
        #: the production's read tick when this listing was last brought
        #: up to date
        self.seen = 0
        #: changed rows past which re-sorting beats splicing
        self.cap = 0


class ProductionNode(Node):
    """Holds the view's bag of result rows and notifies subscribers.

    Applying a delta never runs a callback: the changes of one commit
    accumulate into one pending :class:`~repro.rete.deltas.Delta`, and on
    its first change of a commit the node appends itself to the engine's
    :attr:`touched` list.  Once the commit has propagated, the engine takes
    the pending delta and, unless it netted to nothing, hands it to every
    callback (:meth:`deliver`).  Each callback runs under its own ``try``:
    the first error is handed back and the next callback still runs.

    Reads are served from *listings*: the bag expanded in order, beside
    each row's sort key.  A :class:`ListingSpec` says which rows a listing
    holds and in what order; the canonical listing (:data:`CANONICAL`,
    :func:`~repro.eval.results.canonical_order`) is the spec with no
    filter, no δ and no sort items; every other spec is a *derived*
    listing, at most :data:`LISTINGS_PER_PRODUCTION` of them.  The first
    read of a spec builds its listing; from then on ``apply`` notes every
    row whose count changed in one change log, once whatever the number of
    listings, and the next read of each listing splices just the rows
    changed since its last read.
    """

    def __init__(self, schema):
        super().__init__(schema)
        self.results: dict[tuple, int] = {}
        self._callbacks: list[ChangeCallback] = []
        #: the engine's list of changed productions, joined on the first
        #: change of a commit; ``None`` until registered (populate is no
        #: change) and once detached
        self.touched: list[ProductionNode] | None = None
        #: the current commit's net change, ``None`` while untouched
        self._pending: Delta | None = None
        #: registration order, which delivery follows
        self.serial = 0
        #: the canonical listing, once read
        self._canonical: _Listing | None = None
        #: the derived listings, least recently read first
        self._derived: dict[ListingSpec, _Listing] = {}
        #: each row whose count changed since the least recent listing
        #: read → the read tick of its latest change; ``None`` while there
        #: is no listing to keep
        self._log: dict[tuple, int] | None = None
        #: advances at every listing read; a listing read at tick *t* needs
        #: the rows logged with a tick of at least *t*
        self._tick = 0
        #: the tick of the latest logged change
        self._last = -1
        #: every logged tick is at least this
        self._floor = 0
        #: log size past which the log is due to be trimmed
        self._room = 0
        #: reads that spliced pending changes in / that sorted from scratch
        self.listing_splices = 0
        self.listing_rebuilds = 0

    def on_change(self, callback: ChangeCallback) -> None:
        self._callbacks.append(callback)

    def apply(self, delta: ColumnDelta, side: int) -> None:
        # transition-sensitive boundary: consolidate each batch so a
        # transient delete/insert pair can never trip the negative check
        real = Delta()
        log, tick = self._log, self._tick
        for row, multiplicity in delta.to_delta().items():
            before = self.results.get(row, 0)
            after = bag_insert(self.results, row, multiplicity)
            if after < 0:
                raise AssertionError(
                    f"view multiplicity went negative for row {row!r}"
                )
            if after != before:
                real.add(row, after - before)
                if log is not None:
                    log[row] = tick
        if real:
            if log is not None:
                self._last = tick
                if len(log) > self._room:
                    self._compact()
            pending = self._pending
            if pending is not None:
                pending.update(real)
            elif self.touched is not None:
                self._pending = real
                self.touched.append(self)

    def deliver(
        self, delta: Delta, error: BaseException | None
    ) -> BaseException | None:
        """Hand *delta*, a commit's net change, to every callback, each
        under its own ``try`` (a view detached since hears nothing);
        returns *error*, or else the first error raised."""
        if self.touched is not None:
            for callback in self._callbacks:
                try:
                    callback(delta)
                except BaseException as raised:  # noqa: BLE001 - handed back
                    if error is None:
                        error = raised
        return error

    # -- listings ---------------------------------------------------------------

    def sorted_rows(self) -> list[tuple]:
        """The bag expanded in canonical order, as a fresh list.

        Costs the rows changed since the previous call; a full sort only
        on the first call, after many changes, when a changed row or the
        listing holds a value outside ``int``/``str``/``None``/int-vertex
        paths.
        """
        listing = self._canonical  # View.rows()' hot path: kept inline
        if listing is None or listing.seen <= self._last:
            listing = self._canonical = self._current(listing, CANONICAL, {})
        return list(listing.rows)

    def listing(
        self, spec: ListingSpec, parameters: Mapping[str, Any]
    ) -> list[tuple] | None:
        """*spec*'s listing, brought up to date like :meth:`sorted_rows`.

        This is the maintained list itself: callers slice it (a slice is a
        fresh list) and never mutate it.  *parameters* bind the spec's
        predicate when the listing is first built.  ``None`` when bringing
        a derived listing up to date raised — its predicate failed on some
        row — and the listing is then dropped, so the caller's fallback, the
        interpreter, meets the error afresh (whatever it is: hence the
        broad ``except``).
        """
        if spec == CANONICAL:
            listing = self._canonical
            if listing is None or listing.seen <= self._last:
                listing = self._canonical = self._current(listing, spec, parameters)
            return listing.rows
        derived = self._derived
        try:
            # taken out while it is brought up to date: kept only if that works
            listing = self._current(derived.pop(spec, None), spec, parameters)
        except Exception:
            self._compact()
            return None
        if len(derived) >= LISTINGS_PER_PRODUCTION:
            del derived[next(iter(derived))]
        derived[spec] = listing  # last: the most recently read
        return listing.rows

    def _current(
        self, listing: _Listing | None, spec: ListingSpec, parameters: Mapping[str, Any]
    ) -> _Listing:
        """*listing* brought up to date, or *spec*'s built afresh if ``None``."""
        if listing is None:
            listing = _Listing(spec, parameters)
            self._rebuild(listing)
        elif listing.seen <= self._last and not self._splice(listing):
            self._rebuild(listing)
        return listing

    def _listings(self) -> list[_Listing]:
        listings = list(self._derived.values())
        if self._canonical is not None:
            listings.append(self._canonical)
        return listings

    def _rebuild(self, listing: _Listing) -> None:
        spec, kept = listing.spec, self.results
        if spec.predicate is not None:
            test, ctx = spec.predicate, listing.ctx
            kept = {row: m for row, m in kept.items() if test(row, ctx) is True}
        if spec.distinct:
            expanded = list(kept)
        else:
            expanded = [row for row, m in kept.items() for _ in range(m)]
        # exactly canonical_order (the same keys, compared in the same order)
        pairs = sorted(
            zip(map(row_order_key, expanded), expanded), key=itemgetter(0)
        )
        rows = [row for _, row in pairs]
        for position, ascending in reversed(spec.order):  # exactly ORDER BY
            rows = sort_pass(rows, [row[position] for row in rows], ascending)
        listing.plain = _plain(kept)
        if not spec.order:
            listing.keys = [key for key, _ in pairs]
        else:  # bisect keys are needed only where a splice may follow
            listing.keys = list(map(listing.key, rows)) if listing.plain else []
        listing.rows = rows
        self._caught_up(listing)
        self.listing_rebuilds += 1

    def _splice(self, listing: _Listing) -> bool:
        """Bring *listing* up to date row by row; ``False`` when that cannot
        be guaranteed to equal a rebuild (the caller rebuilds)."""
        log, seen = self._log, listing.seen
        if seen > self._floor:  # the log holds rows it has already read
            log = [row for row, tick in log.items() if tick >= seen]
        if not listing.plain or len(log) > listing.cap:
            return False
        rows, keys, results, key_of = listing.rows, listing.keys, self.results, listing.key
        test, distinct, ctx = listing.spec.predicate, listing.spec.distinct, listing.ctx
        derived = test is not None or distinct
        for row in log:
            probe = _KeyProbe(row)
            count = results.get(probe, 0)
            stored = row if probe.stored is None else probe.stored
            if not _plain((row, stored)):
                return False
            if count and derived:
                if test is not None and test(stored, ctx) is not True:
                    count = 0
                elif distinct:
                    count = 1
            key = key_of(stored)
            lo = bisect_left(keys, key)
            hi = bisect_right(keys, key, lo)
            if (
                (lo and not keys[lo - 1] < key)
                or (hi < len(keys) and not key < keys[hi])
                or rows[lo:hi].count(stored) != hi - lo
            ):
                return False
            rows[lo:hi] = (stored,) * count
            keys[lo:hi] = (key,) * count
        self._caught_up(listing)
        self.listing_splices += 1
        return True

    def _caught_up(self, listing: _Listing) -> None:
        """Mark *listing* current; from here, more changed rows than the
        larger of its rows and the bag's make its next read re-sort."""
        listing.cap = room = max(len(listing.rows), len(self.results))
        self._tick = listing.seen = self._tick + 1
        canonical = self._canonical
        if self._derived or (canonical is not None and canonical is not listing):
            last = self._last
            for other in self._listings():
                if other.seen <= last:  # it still needs logged rows: keep them
                    self._room = min(self._room, len(self._log) + room)
                    return
                room = min(room, other.cap)
        # no listing needs a logged row any more: start the log afresh
        self._log, self._floor, self._room = {}, self._tick, room

    def _compact(self) -> None:
        """Drop the listings whose next read would re-sort, and trim the
        change log to the rows the rest still need."""
        log = self._log or {}
        ticks = sorted(log.values())

        def changed(listing: _Listing) -> int:
            return len(ticks) - bisect_left(ticks, listing.seen)

        if self._canonical is not None and changed(self._canonical) > self._canonical.cap:
            self._canonical = None
        derived = self._derived
        for spec in [s for s, listing in derived.items() if changed(listing) > listing.cap]:
            del derived[spec]
        listings = self._listings()
        if not listings:
            self._log, self._room = None, 0
            return
        self._floor = oldest = min(listing.seen for listing in listings)
        self._log = log = {row: tick for row, tick in log.items() if tick >= oldest}
        # at least doubling the log before the next pass keeps this amortised O(1)
        slack = min(listing.cap - changed(listing) for listing in listings)
        self._room = len(log) + max(slack, len(log))

    @property
    def listing_rows(self) -> int:
        """Rows held by the read listings (0 until the view is read)."""
        return sum(len(listing.rows) for listing in self._listings())

    def dispose(self) -> None:
        self.touched = self._pending = None  # a detached view hears nothing
        self._canonical = None
        self._derived.clear()
        self._log, self._room = None, 0

    def multiset(self) -> dict[tuple, int]:
        return dict(self.results)

    def memory_size(self) -> int:
        return len(self.results)

    def memory_cells(self) -> int:
        return sum(len(row) for row in self.results)
