"""Signed multisets (deltas) — the currency of the Rete network.

Incremental maintenance uses the counting approach of Gupta–Mumick /
Griffin–Libkin (paper refs [10, 11]): every relation is a bag represented
as ``tuple → multiplicity``, and changes travel as *deltas* mapping tuples
to signed multiplicity changes.  A delta with ``+2`` means "two more copies
of this row"; ``-1`` means "one copy retracted".

Two physical representations carry the same logical object, each where
it is the real data:

* :class:`ColumnDelta` — the columnar batch form, and the only form that
  crosses a network edge: parallel value columns plus one signed
  multiplicity column.  It is an *unconsolidated* record of changes (the
  same row may appear several times; occurrences sum), built at the input
  boundary — one event or one coalesced batch — and streamed through the
  nodes without per-row dict churn.  Row tuples are materialised lazily;
  key extraction (:meth:`ColumnDelta.key_column`) works on the columns
  directly, one C-level ``zip`` per call instead of one Python-level
  tuple build per row.
* :class:`Delta` — the row form: a ``dict`` keyed by row tuple, always
  *consolidated* (zero-count entries vanish).  It is what the
  transition-sensitive nodes compute in, what stateful nodes answer
  ``state_delta`` with, and what a view's ``on_change`` receives.

Counting-linear operators (σ, π, ω, ∪, ⋈ and both antijoin/outer-join
memories) consume a :class:`ColumnDelta` as-is: their maintenance rule is
linear in occurrences, so an unconsolidated batch nets to exactly the same
output.  Transition-sensitive operators (δ, γ, ⋈*, the production node) are
defined on *net* per-row changes: they consolidate at entry
(:meth:`ColumnDelta.to_delta`, or :func:`exact_items` where a value that
only changed type must still count as a change), compute in rows and hand
their answer on transposed (:meth:`ColumnDelta.from_delta`).

Node *memories* split along the same line.  Every counting-linear memory
(the ⋈, ▷ and ⟕ indexes) is a :class:`ColumnStore` — a column-backed
keyed bag: non-key ("payload") values live in parallel columns beside a
signed multiplicity column, and the hash index maps each distinct key
tuple to its slot positions — a bare ``int`` while the key has one slot,
a list from the second slot on.  Most keys of a join memory hold one
slot, and an ``int``, unlike a list, is not tracked by the cyclic garbage
collector, so a large memory does not make every full collection walk one
container per key.  Key cells are stored once per
*distinct* key instead of once per row; a join pairs a batch with the
slots its keys match and gathers its output from the stored columns
(:meth:`ColumnStore.pair`) without reconstructing a stored row.  A batch
folds in with no Python call per occurrence (the *batch fold*).  Every
transition-sensitive memory (δ, γ, ⋈*, production) is a plain ``dict``
count map maintained by :func:`bag_insert` / :func:`index_insert`.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from ..graph.values import same_value


def gather(positions: Sequence[int]) -> Callable[[Sequence], list]:
    """A function picking *positions* (in order, repeats allowed) out of a
    column as a new list — one C-level ``itemgetter`` call per column."""
    if not positions:
        return lambda column: []
    if len(positions) == 1:
        (position,) = positions
        return lambda column: [column[position]]
    pick = itemgetter(*positions)
    return lambda column: list(pick(column))


class Delta:
    """A signed multiset of rows; zero-count entries vanish."""

    __slots__ = ("_counts",)

    def __init__(self, items: Iterable[tuple[tuple, int]] = ()):
        self._counts: dict[tuple, int] = {}
        for row, multiplicity in items:
            self.add(row, multiplicity)

    def add(self, row: tuple, multiplicity: int) -> None:
        if multiplicity == 0:
            return
        count = self._counts.get(row, 0) + multiplicity
        if count:
            self._counts[row] = count
        else:
            del self._counts[row]

    def update(self, other: "Delta") -> None:
        # empty-destination fast path: no entry can merge or cancel, so the
        # whole map copies in one C-level bulk update (zero-count rows never
        # exist inside a Delta, so the invariant is preserved)
        if not self._counts:
            self._counts.update(other._counts)
            return
        for row, multiplicity in other.items():
            self.add(row, multiplicity)

    def items(self) -> Iterator[tuple[tuple, int]]:
        return iter(self._counts.items())

    def __iter__(self) -> Iterator[tuple[tuple, int]]:
        return iter(self._counts.items())

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Delta):
            return self._counts == other._counts
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        inner = ", ".join(f"{row}: {m:+d}" for row, m in self._counts.items())
        return "Delta{" + inner + "}"

    def negated(self) -> "Delta":
        out = Delta()
        for row, multiplicity in self.items():
            out.add(row, -multiplicity)
        return out


class ColumnDelta:
    """A columnar batch of signed row changes (see module docstring).

    ``columns`` is a list of ``width`` parallel lists; ``mults`` is the
    signed multiplicity column.  All columns have equal length.  The batch
    is **not** consolidated: the same row may occur on several positions
    and its net multiplicity is the sum of its occurrences.  Construction
    from a :class:`Delta` (:meth:`from_delta`) yields a consolidated
    batch; node outputs built with :meth:`from_rows` generally are not.

    **A batch is immutable once emitted.**  Column lists and the
    multiplicity list may be shared between an input batch and an output
    batch — a σ that keeps everything returns its input, a bare-column π
    item or a ∪ arm hands the input's own column list on — so no node may
    mutate an incoming ``ColumnDelta`` or its lists in place.
    """

    __slots__ = ("columns", "mults", "width")

    def __init__(self, columns: list[list], mults: list[int], width: int):
        self.columns = columns
        self.mults = mults
        self.width = width

    # -- construction -------------------------------------------------------

    @classmethod
    def from_delta(cls, delta: Delta, width: int) -> "ColumnDelta":
        """Transpose a consolidated row delta into columns (one C pass)."""
        counts = delta._counts
        if not counts:
            return cls([[] for _ in range(width)], [], width)
        columns = [list(col) for col in zip(*counts.keys())] if width else []
        return cls(columns, list(counts.values()), width)

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple], mults: list[int], width: int
    ) -> "ColumnDelta":
        """Transpose a (possibly unconsolidated) row batch into columns."""
        if not rows:
            return cls([[] for _ in range(width)], [], width)
        columns = [list(col) for col in zip(*rows)] if width else []
        return cls(columns, list(mults), width)

    @classmethod
    def concat(cls, deltas: Sequence["ColumnDelta"]) -> "ColumnDelta":
        """The occurrences of *deltas* (at least one, all of one width) one
        after another as one batch — never consolidated, so ``-(a, 1)`` and
        ``+(a, True)`` stay two occurrences in their order."""
        width = deltas[0].width
        columns = [[] for _ in range(width)]
        mults: list[int] = []
        for part in deltas:
            for column, values in zip(columns, part.columns):
                column += values
            mults += part.mults
        return cls(columns, mults, width)

    # -- access -------------------------------------------------------------

    def key_column(self, indices: Sequence[int]) -> list[tuple]:
        """Key tuples for every position, extracted column-wise.

        The result tuples are identical to ``tuple(row[i] for i in
        indices)`` of the row-at-a-time path, so they probe the same hash
        memories; the transpose happens in one C-level ``zip`` instead of
        one Python expression per row.
        """
        n = len(self.mults)
        if not indices:
            return [()] * n
        if len(indices) == 1:
            return list(zip(self.columns[indices[0]]))
        return list(zip(*(self.columns[i] for i in indices)))

    def take(self, positions: Sequence[int]) -> "ColumnDelta":
        """The batch at *positions* (in that order, repeats allowed),
        gathered one column at a time — no row tuple is built."""
        pick = gather(positions)
        return ColumnDelta(
            [pick(column) for column in self.columns], pick(self.mults), self.width
        )

    def rows(self) -> list[tuple]:
        """All row tuples, materialised in one C-level transpose."""
        if self.width == 0:
            return [()] * len(self.mults)
        return list(zip(*self.columns))

    def items(self) -> Iterator[tuple[tuple, int]]:
        return zip(self.rows(), self.mults)

    def __iter__(self) -> Iterator[tuple[tuple, int]]:
        return zip(self.rows(), self.mults)

    def __len__(self) -> int:
        return len(self.mults)

    def __bool__(self) -> bool:
        return bool(self.mults)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        inner = ", ".join(f"{row}: {m:+d}" for row, m in self.items())
        return "ColumnDelta{" + inner + "}"

    def to_delta(self) -> Delta:
        """Consolidated row form — duplicate occurrences merge and cancel."""
        out = Delta()
        add = out.add
        rows = zip(*self.columns) if self.width else [()] * len(self.mults)
        for row, multiplicity in zip(rows, self.mults):
            add(row, multiplicity)
        return out


def exact_items(delta: ColumnDelta) -> Iterable[tuple[tuple, int]]:
    """*delta*'s net ``(row, multiplicity)`` pairs, merging two
    occurrences only when they are the same values
    (:func:`~repro.graph.values.same_value`).

    :meth:`ColumnDelta.to_delta` merges ``==`` rows, so an entity whose
    value only changed type (``1`` → ``True``) would cancel out of it.
    """
    held: dict[tuple, list[list]] = {}
    rows = zip(*delta.columns) if delta.width else [()] * len(delta.mults)
    for row, multiplicity in zip(rows, delta.mults):
        entries = held.get(row)
        if entries is None:
            held[row] = [[row, multiplicity]]
            continue
        for entry in entries:
            if same_value(entry[0], row):
                entry[1] += multiplicity
                break
        else:
            entries.append([row, multiplicity])
    return [(row, m) for entries in held.values() for row, m in entries if m]


def bag_insert(bag: dict[tuple, int], row: tuple, multiplicity: int) -> int:
    """Adjust *row*'s count in a bag; returns the new count (may be 0)."""
    count = bag.get(row, 0) + multiplicity
    if count:
        bag[row] = count
    else:
        bag.pop(row, None)
    return count


def index_insert(index: dict, key, row: tuple, multiplicity: int) -> None:
    """Adjust a keyed bag index (key → bag of rows); prunes empty buckets.

    Buckets never retain zero-count rows: a cancellation pops the row, and
    a bucket whose last row cancels is deleted from the index.
    """
    if multiplicity == 0:
        return
    bucket = index.get(key)
    if bucket is None:
        index[key] = {row: multiplicity}
        return
    count = bucket.get(row, 0) + multiplicity
    if count:
        bucket[row] = count
    else:
        del bucket[row]
        if not bucket:
            del index[key]


class StoreBucket:
    """A lightweight read view over one :class:`ColumnStore` bucket.

    Duck-typed like a ``{row: multiplicity}`` dict: truthy when non-empty,
    sized, and ``items()`` yields ``(row, mult)`` pairs with the row
    reassembled from the bucket key and the payload columns — a fresh
    generator per call, so a view may be iterated several times within
    one maintenance step (the outer-join null toggles do).
    *positions* is always a sequence: the store hands a one-slot bucket,
    held in its index as a bare ``int``, over as a one-element tuple.
    """

    __slots__ = ("_store", "_key", "_positions")

    def __init__(self, store: "ColumnStore", key: tuple, positions: Sequence[int]):
        self._store = store
        self._key = key
        self._positions = positions

    def __len__(self) -> int:
        return len(self._positions)

    def __bool__(self) -> bool:
        return bool(self._positions)

    def items(self) -> Iterator[tuple[tuple, int]]:
        key = self._key
        store = self._store
        columns = store.columns
        mults = store.mults
        assemble = store._assemble
        for pos in self._positions:
            yield (
                tuple(
                    key[j] if from_key else columns[j][pos]
                    for from_key, j in assemble
                ),
                mults[pos],
            )


class ColumnStore:
    """A column-backed keyed bag memory (every counting-linear memory).

    Rows of a fixed width are split into *key* columns (the hash-index
    key, e.g. a join's shared attributes) and *payload* columns (the
    rest, in a caller-chosen order).  Payload values sit in parallel
    lists beside one signed multiplicity column and one *slot key*
    column; ``index`` maps each distinct key tuple to the live slot
    positions holding that key: the position itself, a bare ``int``, while
    there is one, and a list of two or more otherwise.  A bucket becomes a
    list when its second slot arrives and an ``int`` again when it drops
    back to one, so a list never holds fewer than two slots — and the
    collector, which tracks every list but no ``int``, is spared one
    container per single-slot key.  Key cells are therefore stored once
    per distinct key, and cancelled slots go on a free list for reuse.
    ``slot_keys[pos]`` is the very key object under which ``index`` holds
    that slot's bucket (``None`` for a free slot): bookkeeping like
    ``mults``, no tuple field of its own, it maps a slot found by a column
    scan to its bucket in O(1) (:meth:`select`) and names the stored key
    object (:meth:`stored`).

    The read surface is a keyed bag index's (``get``/``items``/
    truthiness); writes go through ``insert`` (one row occurrence,
    :meth:`_fold`) or ``insert_columns`` (the first batch a store ever
    receives — a join memory at populate — is copied in bulk; later
    batches run the batch fold, with no Python call per occurrence and no
    row tuple built).
    Both folds agree slot for slot: a payload matches by ``is``-or-``==``,
    a slot whose count sums to zero is freed and reused first, emptied
    buckets leave the index and a new bucket is keyed by the incoming
    key object.  No slot ever holds multiplicity zero.
    """

    __slots__ = (
        "key_cols",
        "payload_cols",
        "width",
        "columns",
        "mults",
        "slot_keys",
        "index",
        "free",
        "_assemble",
        "_single",
    )

    def __init__(self, key_cols: Sequence[int], payload_cols: Sequence[int]):
        self.key_cols = tuple(key_cols)
        self.payload_cols = tuple(payload_cols)
        self.width = len(self.key_cols) + len(self.payload_cols)
        if sorted(self.key_cols + self.payload_cols) != list(range(self.width)):
            raise ValueError(
                f"key {self.key_cols} and payload {self.payload_cols} must "
                f"partition the row width"
            )
        self.columns: list[list] = [[] for _ in self.payload_cols]
        self.mults: list[int] = []
        self.slot_keys: list["tuple | None"] = []
        self.index: dict[tuple, "int | list[int]"] = {}
        self.free: list[int] = []
        # row[i] comes from the key tuple or a payload column — precomputed
        # as (from_key, position-within-source) per output position
        self._assemble = tuple(
            (True, self.key_cols.index(i))
            if i in self.key_cols
            else (False, self.payload_cols.index(i))
            for i in range(self.width)
        )
        # join memories overwhelmingly carry one payload column; the fold
        # loop takes a dedicated branch that skips the per-column zip
        self._single = self.columns[0] if len(self.columns) == 1 else None

    def over(self, columns: list[list], mults: list[int]) -> "ColumnStore":
        """A read-only store of this one's layout over the rows of a
        batch's *columns*, which it indexes but never copies: slot *i* is
        occurrence *i*, and equal rows keep a slot each (every read of a
        bag sums them).  What a probe-side join reads the graph's rows
        into."""
        store = object.__new__(ColumnStore)
        store.key_cols = key_cols = self.key_cols
        store.payload_cols = self.payload_cols
        store.width = self.width
        store._assemble = self._assemble
        store.free = []
        keys = store.slot_keys = (
            list(zip(*[columns[i] for i in key_cols]))
            if key_cols
            else [()] * len(mults)
        )
        store.columns = payload = [columns[i] for i in self.payload_cols]
        store._single = payload[0] if len(payload) == 1 else None
        store.mults = mults
        store.index = index = {}
        get = index.get
        for position, key in enumerate(keys):
            bucket = get(key)
            if bucket is None:
                index[key] = position
            elif type(bucket) is int:
                index[key] = [bucket, position]
            else:
                bucket.append(position)
        return store

    # -- writes -------------------------------------------------------------

    def _fold(self, key: tuple, payload: tuple, multiplicity: int) -> None:
        """One occurrence into the bucket of *key*; prunes cancelled slots.
        The reference the batch fold (:meth:`insert_columns`) agrees with
        slot for slot."""
        index = self.index
        bucket = index.get(key)
        if bucket is None:
            index[key] = self._alloc(payload, multiplicity, key)
            return
        one = type(bucket) is int
        slots = (bucket,) if one else bucket
        single = self._single
        for pos in slots:
            if single is not None:
                held = single[pos]
                if held is payload[0] or held == payload[0]:
                    break
                continue
            for column, value in zip(self.columns, payload):
                held = column[pos]
                if held is not value and held != value:
                    break
            else:
                break
        else:
            pos = self._alloc(payload, multiplicity, self.slot_keys[slots[0]])
            if one:
                index[key] = [bucket, pos]
            else:
                bucket.append(pos)
            return
        count = self.mults[pos] + multiplicity
        if count:
            self.mults[pos] = count
        else:
            self._release(pos)
            if one:
                del index[key]
            else:
                bucket.remove(pos)
                if len(bucket) == 1:
                    index[key] = bucket[0]

    def _alloc(self, payload: tuple, multiplicity: int, key: tuple) -> int:
        free = self.free
        columns = self.columns
        if free:
            pos = free.pop()
            for column, value in zip(columns, payload):
                column[pos] = value
            self.mults[pos] = multiplicity
            self.slot_keys[pos] = key
        else:
            pos = len(self.mults)
            for column, value in zip(columns, payload):
                column.append(value)
            self.mults.append(multiplicity)
            self.slot_keys.append(key)
        return pos

    def _release(self, pos: int) -> None:
        for column in self.columns:
            column[pos] = None
        self.mults[pos] = 0
        self.slot_keys[pos] = None
        self.free.append(pos)

    def insert(self, key: tuple, row: tuple, multiplicity: int) -> None:
        if multiplicity == 0:
            return
        if self._single is not None:
            self._fold(key, (row[self.payload_cols[0]],), multiplicity)
            return
        self._fold(
            key, tuple(row[i] for i in self.payload_cols), multiplicity
        )

    def insert_columns(
        self, keys: Sequence[tuple], columns: Sequence[list], mults: Sequence[int]
    ) -> None:
        """Fold a columnar batch in directly — no row tuples materialised.

        A store that has never held a slot bulk-loads (:meth:`_load`).
        Later batches run the batch fold: :meth:`_fold` written inline,
        one loop per payload shape, so an occurrence costs no Python call
        and leaves slot for slot what :meth:`_fold` would (a new slot in a
        live bucket takes the key object of the bucket's first slot).
        Without payload columns ``zip(*[])`` yields nothing, so
        ``repeat(())`` feeds the multi-column loop, where such a bucket's
        one slot always matches.
        """
        if not self.mults:
            self._load(keys, [columns[i] for i in self.payload_cols], mults)
            return
        index = self.index
        get = index.get
        held_mults = self.mults
        slot_keys = self.slot_keys
        free = self.free
        single = self._single
        if single is not None:
            for key, value, multiplicity in zip(
                keys, columns[self.payload_cols[0]], mults
            ):
                if not multiplicity:
                    continue
                bucket = get(key)
                if bucket is not None:
                    one = type(bucket) is int
                    for pos in (bucket,) if one else bucket:
                        held = single[pos]
                        if held is value or held == value:
                            break
                    else:
                        pos = -1
                    if pos >= 0:
                        count = held_mults[pos] + multiplicity
                        if count:
                            held_mults[pos] = count
                        else:
                            single[pos] = None
                            held_mults[pos] = 0
                            slot_keys[pos] = None
                            free.append(pos)
                            if one:
                                del index[key]
                            else:
                                bucket.remove(pos)
                                if len(bucket) == 1:
                                    index[key] = bucket[0]
                        continue
                    key = slot_keys[bucket if one else bucket[0]]
                if free:
                    pos = free.pop()
                    single[pos] = value
                    held_mults[pos] = multiplicity
                    slot_keys[pos] = key
                else:
                    pos = len(held_mults)
                    single.append(value)
                    held_mults.append(multiplicity)
                    slot_keys.append(key)
                if bucket is None:
                    index[key] = pos
                elif one:
                    index[key] = [bucket, pos]
                else:
                    bucket.append(pos)
            return
        stored = self.columns
        sources = [columns[i] for i in self.payload_cols]
        payloads = zip(*sources) if sources else repeat(())
        for key, payload, multiplicity in zip(keys, payloads, mults):
            if not multiplicity:
                continue
            bucket = get(key)
            if bucket is not None:
                one = type(bucket) is int
                for pos in (bucket,) if one else bucket:
                    for column, value in zip(stored, payload):
                        held = column[pos]
                        if held is not value and held != value:
                            break
                    else:
                        break
                else:
                    pos = -1
                if pos >= 0:
                    count = held_mults[pos] + multiplicity
                    if count:
                        held_mults[pos] = count
                    else:
                        for column in stored:
                            column[pos] = None
                        held_mults[pos] = 0
                        slot_keys[pos] = None
                        free.append(pos)
                        if one:
                            del index[key]
                        else:
                            bucket.remove(pos)
                            if len(bucket) == 1:
                                index[key] = bucket[0]
                    continue
                key = slot_keys[bucket if one else bucket[0]]
            if free:
                pos = free.pop()
                for column, value in zip(stored, payload):
                    column[pos] = value
                held_mults[pos] = multiplicity
                slot_keys[pos] = key
            else:
                pos = len(held_mults)
                for column, value in zip(stored, payload):
                    column.append(value)
                held_mults.append(multiplicity)
                slot_keys.append(key)
            if bucket is None:
                index[key] = pos
            elif one:
                index[key] = [bucket, pos]
            else:
                bucket.append(pos)

    def _load(
        self, keys: Sequence[tuple], sources: list[list], mults: Sequence[int]
    ) -> None:
        """:meth:`insert_columns` into an empty store, in bulk.

        Slot *i* is live occurrence *i*: one pass groups positions by key,
        and the payload columns and multiplicities are copied with C-level
        ``extend``.  A key's first position enters the index as a bare
        ``int``; its second turns the bucket into a list.  Only a bucket
        that received several positions can hold equal payloads, and only
        those are checked (:meth:`_merge_bucket`); their later positions are
        re-keyed to the bucket's first key object.
        """
        if 0 in mults:
            occurring = [p for p, m in enumerate(mults) if m]
            if not occurring:
                return
            pick = gather(occurring)
            keys, mults = pick(keys), pick(mults)
            sources = [pick(source) for source in sources]
        index = self.index
        get = index.get
        slot_keys = self.slot_keys
        slot_keys.extend(keys)
        shared: list[tuple[tuple, list[int]]] = []
        for position, key in enumerate(keys):
            bucket = get(key)
            if bucket is None:
                index[key] = position
                continue
            if type(bucket) is int:
                index[key] = bucket = [bucket, position]
                shared.append((key, bucket))
            else:
                bucket.append(position)
            slot_keys[position] = slot_keys[bucket[0]]
        for column, source in zip(self.columns, sources):
            column.extend(source)
        self.mults.extend(mults)
        for key, bucket in shared:
            self._merge_bucket(key, bucket, keys)

    def _merge_bucket(
        self, key: tuple, bucket: list[int], keys: Sequence[tuple]
    ) -> None:
        """Merge equal payloads of one freshly loaded bucket.

        Payloads that are pairwise distinct (one C-level set build) leave
        the bucket as it is.  Otherwise its occurrences are replayed in
        order with :meth:`_fold`'s identity (``is`` or ``==``): a repeat
        adds into the live slot holding its payload and frees its own, a
        merge that cancels to zero frees that slot too, and a bucket that
        empties leaves the index — re-keyed, slot keys too, by the
        occurrence that revives it, which is the key object one-at-a-time
        folding would keep.  A bucket left with one live slot is stored as
        that slot's ``int``.
        """
        pick = gather(bucket)
        if self._single is not None:
            payloads = pick(self._single)
        elif self.columns:
            payloads = list(zip(*(pick(column) for column in self.columns)))
        else:
            payloads = [()] * len(bucket)
        if len(set(payloads)) == len(payloads):
            return
        mults = self.mults
        live: list[int] = []
        held: list = []
        revived = None
        for position, payload in zip(bucket, payloads):
            for i, other in enumerate(held):
                if other is payload or other == payload:
                    break
            else:
                if not live and position != bucket[0]:
                    revived = keys[position]
                live.append(position)
                held.append(payload)
                continue
            slot = live[i]
            count = mults[slot] + mults[position]
            self._release(position)
            if count:
                mults[slot] = count
            else:
                self._release(slot)
                del live[i], held[i]
        index = self.index
        if not live or revived is not None:
            del index[key]
            key = revived
            for slot in live:
                self.slot_keys[slot] = revived
        if live:
            index[key] = live if len(live) > 1 else live[0]

    # -- reads (keyed bag index surface) ------------------------------------

    def get(self, key: tuple, default=None):
        positions = self.index.get(key)
        if positions is None:
            return default
        if type(positions) is int:
            positions = (positions,)
        return StoreBucket(self, key, positions)

    def items(self) -> Iterator[tuple[tuple, StoreBucket]]:
        for key, positions in self.index.items():
            if type(positions) is int:
                positions = (positions,)
            yield key, StoreBucket(self, key, positions)

    def pair(self, keys: Sequence[tuple]) -> tuple[list[int], list[int], list[int]]:
        """Batch positions paired with the slots their *keys* match (one
        entry per pair, in parallel lists), and the positions that match
        none: a columnar probe in one loop.  A one-slot bucket's ``int`` is
        appended as it is."""
        at: list[int] = []
        slots: list[int] = []
        missed: list[int] = []
        for position, found in enumerate(map(self.index.get, keys)):
            if found is None:
                missed.append(position)
            elif type(found) is int:
                slots.append(found)
                at.append(position)
            else:
                slots += found
                at += [position] * len(found)
        return at, slots, missed

    def stored(self, key: tuple) -> "tuple[tuple, StoreBucket] | None":
        """The index entry equal to *key* as ``(stored key, bucket)``.

        Unlike :meth:`get`, whose bucket assembles rows around the probe's
        key, this hands back the key object the index *holds*: ``1``,
        ``True`` and ``1.0`` hash and compare alike, so a probe built from
        a binding's ``True`` finds the bucket stored under ``1`` and must
        not dress its rows in the binding's value.  The held key is the
        bucket's first slot key.
        """
        positions = self.index.get(key)
        if positions is None:
            return None
        if type(positions) is int:
            positions = (positions,)
        stored = self.slot_keys[positions[0]]
        return stored, StoreBucket(self, stored, positions)

    def select(
        self, pairs: Sequence[tuple[int, object]]
    ) -> tuple[int, list[tuple[tuple, StoreBucket]]]:
        """The buckets of :meth:`items` narrowed to the rows with
        ``row[col] == value`` for every ``(col, value)`` pair, preceded by
        the number of entries examined to find them — the restricted
        look-up behind targeted activation.

        Equality is Python ``==`` (``1 == True == 1.0``, and an identical
        NaN object matches itself): the result is a candidate set for a
        predicate the caller still evaluates, never an answer by itself —
        which is why every key and cell handed back is the *stored*
        object, never a pair's value.  Nothing is indexed for this: a
        payload pair scans its one column (``list.index``, a C loop), the
        hits are grouped by their slot keys and each distinct key probes
        the index once (examined: the scan plus the keys probed); buckets
        come back in order of their lowest hit slot, each narrowed to its
        hits in bucket order.  Key pairs probe the index directly when they
        cover the whole key and filter its distinct keys otherwise.
        """
        index = self.index
        key_pairs = []
        payload_pairs = []
        for col, value in pairs:
            from_key, j = self._assemble[col]
            (key_pairs if from_key else payload_pairs).append((j, value))
        if not payload_pairs:
            wanted = dict(key_pairs)
            if len(wanted) == len(key_pairs) == len(self.key_cols):
                entry = self.stored(
                    tuple(wanted[j] for j in range(len(self.key_cols)))
                )
                return 0, [] if entry is None else [entry]
            return len(index), [
                (key, bucket)
                for key, bucket in self.items()
                if all(key[j] == value for j, value in key_pairs)
            ]
        (first, value), rest = payload_pairs[0], payload_pairs[1:]
        column = self.columns[first]
        mults = self.mults
        columns = self.columns
        slot_keys = self.slot_keys
        hits = set()
        keys = {}  # insertion order: lowest hit slot first
        position = -1
        try:
            while True:
                position = column.index(value, position + 1)
                # a freed slot holds None/0: never a live row
                if mults[position] and all(
                    columns[j][position] == other for j, other in rest
                ):
                    hits.add(position)
                    keys[slot_keys[position]] = None
        except ValueError:
            pass
        found = []
        for key in keys:
            if all(key[j] == other for j, other in key_pairs):
                bucket = index[key]
                # a hit's own key: a one-slot bucket is that very hit
                kept = (
                    (bucket,)
                    if type(bucket) is int
                    else [p for p in bucket if p in hits]
                )
                found.append((key, StoreBucket(self, key, kept)))
        return self.size() + len(keys), found

    def __len__(self) -> int:
        return len(self.index)

    def __bool__(self) -> bool:
        return bool(self.index)

    def key_weight(self, key: tuple) -> int:
        """Summed multiplicity under *key* (the outer join's right count —
        derived from the bucket instead of a separate per-key count map)."""
        positions = self.index.get(key)
        if positions is None:
            return 0
        mults = self.mults
        if type(positions) is int:
            return mults[positions]
        return sum(mults[pos] for pos in positions)

    # -- accounting ---------------------------------------------------------

    def size(self) -> int:
        """Live slot count — one per distinct (key, payload) entry."""
        return len(self.mults) - len(self.free)

    def cells(self) -> int:
        """Stored tuple fields: payload cells per live slot plus key cells
        once per distinct key."""
        return (len(self.mults) - len(self.free)) * len(self.payload_cols) + len(
            self.index
        ) * len(self.key_cols)

