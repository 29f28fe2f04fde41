"""Binary beta nodes: natural join, antijoin, left outer join, union.

All four maintain per-side memories indexed by the shared (natural-join)
attributes and follow the sequential counting rule — an incoming delta is
joined against the *other* side's current memory, then folded into this
side's memory (see :mod:`.base`).

Every memory is a :class:`~repro.rete.deltas.ColumnStore` — key cells
stored once per distinct key, payload values in parallel columns — and
each node has one loop per delta form: a row loop over a
:class:`~repro.rete.deltas.Delta` (per-event mode) and a column loop over
a :class:`~repro.rete.deltas.ColumnDelta` (batched mode and populate).
In the column loop key columns are extracted with one C-level transpose,
the key column probes the store in one loop (``ColumnStore.pair``) and
the batch's value columns fold in directly (``insert_columns``: a bulk
copy into a store that is still empty, as every memory is at populate,
and the batch fold after that).
⋈ and the left sides of ▷ and ⟕ gather their output column by column
and build no row tuple at all.  All four maintenance rules are linear in
row occurrences, so the column loops are exact on unconsolidated batches
(duplicate occurrences sum; any compensating output pairs cancel at the
next consolidation boundary).

The right store of ⋈/⟕ keeps its payload in ``right_extra`` order, so
probe hits *are* the merge suffixes.  The left outer join keeps no
separate per-key right count: the right store's bucket weight
(``key_weight``) is that count.
"""

from __future__ import annotations

from operator import mul

from ..deltas import ColumnDelta, ColumnStore, Delta, gather
from .base import LEFT, Node


def _complement(key: list[int], width: int) -> list[int]:
    """Payload columns of a *width*-wide row not covered by *key*."""
    covered = set(key)
    return [i for i in range(width) if i not in covered]


class JoinNode(Node):
    """⋈ — natural join with two hash memories."""

    def __init__(
        self,
        schema,
        left_key: list[int],
        right_key: list[int],
        right_extra: list[int],
    ):
        super().__init__(schema)
        self.left_key = left_key
        self.right_key = right_key
        self.right_extra = right_extra
        left_width = len(schema) - len(right_extra)
        self.left_index = ColumnStore(left_key, _complement(left_key, left_width))
        # payload order == right_extra: probe hits are merge suffixes
        self.right_index = ColumnStore(right_key, right_extra)

    def _merge(self, left_row: tuple, right_row: tuple) -> tuple:
        return left_row + tuple(right_row[i] for i in self.right_extra)

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        if type(delta) is ColumnDelta:
            self._apply_columnar(delta, side)
        else:
            self._apply_rows(delta, side)

    def _apply_rows(self, delta: Delta, side: int) -> None:
        out = Delta()
        if side == LEFT:
            probe = self.right_index.get
            fold = self.left_index.insert
            for row, multiplicity in delta.items():
                key = tuple(row[i] for i in self.left_key)
                bucket = probe(key)
                if bucket is not None:
                    for suffix, m2 in bucket.payloads():
                        out.add(row + suffix, multiplicity * m2)
                fold(key, row, multiplicity)
        else:
            extra = self.right_extra
            probe = self.left_index.get
            fold = self.right_index.insert_payload
            for row, multiplicity in delta.items():
                key = tuple(row[i] for i in self.right_key)
                suffix = tuple(row[i] for i in extra)
                bucket = probe(key)
                if bucket is not None:
                    for other, m2 in bucket.items():
                        out.add(other + suffix, multiplicity * m2)
                fold(key, suffix, multiplicity)
        self.emit(out)

    def _apply_columnar(self, delta: ColumnDelta, side: int) -> None:
        """Gathered: one probe loop pairs batch positions with the other
        store's matching slots, then every output column is gathered from
        its source — batch columns by position, stored payload by slot,
        and a left row's key cells from the probing batch's key columns —
        and the value columns fold in directly (``insert_columns``).  No
        row tuple is built."""
        mults = delta.mults
        cols = delta.columns
        if side == LEFT:
            keys = delta.key_column(self.left_key)
            probed, own = self.right_index, self.left_index
        else:
            keys = delta.key_column(self.right_key)
            probed, own = self.left_index, self.right_index
        at, slots, _ = probed.pair(keys)
        if at:
            from_batch, from_store = gather(at), gather(slots)
            if side == LEFT:
                # payload order == right_extra: stored payloads are suffixes
                out = [from_batch(col) for col in cols]
                out += [from_store(col) for col in probed.columns]
            else:
                right_key = self.right_key
                out = [
                    from_batch(cols[right_key[j]])
                    if from_key
                    else from_store(probed.columns[j])
                    for from_key, j in probed._assemble
                ]
                out += [from_batch(cols[i]) for i in self.right_extra]
            out_mults = list(map(mul, from_batch(mults), from_store(probed.mults)))
        own.insert_columns(keys, cols, mults)
        if at:
            self.emit(ColumnDelta(out, out_mults, len(self.schema)))

    def state_delta(self, restriction: tuple = ()) -> Delta:
        """The join of the two memories, narrowed by *restriction*.

        A restricted look-up starts from the side that owns the restricted
        columns — :meth:`ColumnStore.select` finds that side's surviving
        rows (one column scan whose hits reach their buckets through the
        store's slot-key column, or an index probe for join-key columns) —
        and probes the other side once per surviving key, so the cost is
        that side's scanned column plus the matches, not the whole join.  Pairs on
        the other side are left to the caller's predicate, which must see
        the very objects the full fold would show it — so every output
        cell comes from a memory, never from a pair's value.  No
        restriction is the full fold.
        """
        out = Delta()
        left_pairs: list[tuple] = []
        right_pairs: list[tuple] = []
        left_width = self.left_index.width
        for column, value in restriction:
            if column < left_width:
                left_pairs.append((column, value))
            else:
                right_pairs.append((self.right_extra[column - left_width], value))
        if right_pairs and not left_pairs:
            examined, survivors = self.right_index.select(right_pairs)
            self.replay_scanned += examined
            for key, matches in survivors:
                # left rows are built around the *left* memory's own key
                # object: the right's may be an equal 1.0 where it holds 1
                entry = self.left_index.stored(key)
                if entry is not None:
                    self._cross(out, entry[1], matches)
            return out
        if left_pairs:
            examined, buckets = self.left_index.select(left_pairs)
            self.replay_scanned += examined
        else:
            buckets = self.left_index.items()
        for key, bucket in buckets:
            matches = self.right_index.get(key)
            if matches:
                self._cross(out, bucket, matches)
        return out

    def _cross(self, out: Delta, bucket, matches) -> None:
        for row, multiplicity in bucket.items():
            for other, m2 in matches.items():
                out.add(self._merge(row, other), multiplicity * m2)

    def memory_size(self) -> int:
        return self.left_index.size() + self.right_index.size()

    def memory_cells(self) -> int:
        return self.left_index.cells() + self.right_index.cells()


class AntiJoinNode(Node):
    """▷ — left rows whose key has no right partner.

    Right memory stores aggregate multiplicity per key; left rows toggle
    in or out of the result when that count crosses zero."""

    def __init__(self, schema, left_key: list[int], right_key: list[int]):
        super().__init__(schema)
        self.left_key = left_key
        self.right_key = right_key
        self.left_index = ColumnStore(
            left_key, _complement(left_key, len(schema))
        )
        # the right memory is a per-key count: no rows are stored, so there
        # is nothing for column storage to deduplicate
        self.right_counts: dict[tuple, int] = {}

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        if type(delta) is ColumnDelta:
            self._apply_columnar(delta, side)
            return
        out = Delta()
        if side == LEFT:
            fold = self.left_index.insert
            for row, multiplicity in delta.items():
                key = tuple(row[i] for i in self.left_key)
                if self.right_counts.get(key, 0) == 0:
                    out.add(row, multiplicity)
                fold(key, row, multiplicity)
        else:
            for row, multiplicity in delta.items():
                key = tuple(row[i] for i in self.right_key)
                before = self.right_counts.get(key, 0)
                after = before + multiplicity
                if after:
                    self.right_counts[key] = after
                else:
                    self.right_counts.pop(key, None)
                if before == 0 and after > 0:
                    for left_row, m in self.left_index.get(key, {}).items():
                        out.add(left_row, -m)
                elif before > 0 and after == 0:
                    for left_row, m in self.left_index.get(key, {}).items():
                        out.add(left_row, m)
        self.emit(out)

    def _apply_columnar(self, delta: ColumnDelta, side: int) -> None:
        mults = delta.mults
        if side == LEFT:
            # the output is the batch at its unmatched positions, taken
            # column by column; the fold reads the columns directly
            keys = delta.key_column(self.left_key)
            count = self.right_counts.get
            unmatched = [pos for pos, key in enumerate(keys) if not count(key, 0)]
            self.left_index.insert_columns(keys, delta.columns, mults)
            self.emit(delta.take(unmatched))
            return
        out_rows: list[tuple] = []
        out_mults: list[int] = []
        counts = self.right_counts
        left = self.left_index.get
        for key, multiplicity in zip(delta.key_column(self.right_key), mults):
            before = counts.get(key, 0)
            after = before + multiplicity
            if after:
                counts[key] = after
            else:
                counts.pop(key, None)
            if before == 0 and after > 0:
                for left_row, m in left(key, {}).items():
                    out_rows.append(left_row)
                    out_mults.append(-m)
            elif before > 0 and after == 0:
                for left_row, m in left(key, {}).items():
                    out_rows.append(left_row)
                    out_mults.append(m)
        self.emit(ColumnDelta.from_rows(out_rows, out_mults, len(self.schema)))

    def state_delta(self, restriction: tuple = ()) -> Delta:
        out = Delta()
        for key, bucket in self.left_index.items():
            if self.right_counts.get(key, 0) == 0:
                for row, multiplicity in bucket.items():
                    out.add(row, multiplicity)
        return out

    def memory_size(self) -> int:
        return self.left_index.size() + len(self.right_counts)

    def memory_cells(self) -> int:
        return self.left_index.cells() + sum(
            len(key) for key in self.right_counts
        )


class LeftOuterJoinNode(Node):
    """⟕ — natural join plus null-padded rows for unmatched left rows."""

    def __init__(
        self,
        schema,
        left_key: list[int],
        right_key: list[int],
        right_extra: list[int],
    ):
        super().__init__(schema)
        self.left_key = left_key
        self.right_key = right_key
        self.right_extra = right_extra
        left_width = len(schema) - len(right_extra)
        self.left_index = ColumnStore(left_key, _complement(left_key, left_width))
        self.right_index = ColumnStore(right_key, right_extra)
        self._nulls = ()  # set by network builder via configure_nulls

    def configure_nulls(self, width: int) -> None:
        self._nulls = (None,) * width

    def _merge(self, left_row: tuple, right_row: tuple) -> tuple:
        return left_row + tuple(right_row[i] for i in self.right_extra)

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        if type(delta) is ColumnDelta:
            self._apply_columnar(delta, side)
        else:
            self._apply_rows(delta, side)

    def _apply_rows(self, delta: Delta, side: int) -> None:
        """The right count is ``key_weight`` (the bucket's summed
        multiplicity), read just before each fold, so the before/after
        zero-crossing that toggles null padding is decided per occurrence."""
        out = Delta()
        nulls = self._nulls
        if side == LEFT:
            probe = self.right_index.get
            fold = self.left_index.insert
            for row, multiplicity in delta.items():
                key = tuple(row[i] for i in self.left_key)
                bucket = probe(key)
                if bucket is not None:
                    for suffix, m2 in bucket.payloads():
                        out.add(row + suffix, multiplicity * m2)
                else:
                    out.add(row + nulls, multiplicity)
                fold(key, row, multiplicity)
        else:
            extra = self.right_extra
            left = self.left_index.get
            right_store = self.right_index
            for row, multiplicity in delta.items():
                key = tuple(row[i] for i in self.right_key)
                suffix = tuple(row[i] for i in extra)
                bucket = left(key)
                if bucket is not None:
                    for left_row, m in bucket.items():
                        out.add(left_row + suffix, multiplicity * m)
                before = right_store.key_weight(key)
                right_store.insert_payload(key, suffix, multiplicity)
                after = before + multiplicity
                if bucket is not None:
                    if before == 0 and after > 0:
                        for left_row, m in bucket.items():
                            out.add(left_row + nulls, -m)
                    elif before > 0 and after == 0:
                        for left_row, m in bucket.items():
                            out.add(left_row + nulls, m)
        self.emit(out)

    def _apply_columnar(self, delta: ColumnDelta, side: int) -> None:
        """The right side keeps the row loop's per-occurrence interleaving
        of joins and count transition, tallying each key's weight so the
        store folds the batch once, after the loop.  The left side builds
        no row tuple: matches are gathered as in ⋈, misses taken from the
        batch and padded with ``None`` columns."""
        mults = delta.mults
        cols = delta.columns
        if side == LEFT:
            keys = delta.key_column(self.left_key)
            probed = self.right_index
            at, slots, unmatched = probed.pair(keys)
            from_batch, from_store, pad = gather(at), gather(slots), gather(unmatched)
            out = [from_batch(col) + pad(col) for col in cols]
            # payload order == right_extra: stored payloads are suffixes
            nulls = [None] * len(unmatched)
            out += [from_store(col) + nulls for col in probed.columns]
            out_mults = list(map(mul, from_batch(mults), from_store(probed.mults)))
            out_mults += pad(mults)
            self.left_index.insert_columns(keys, cols, mults)
            self.emit(ColumnDelta(out, out_mults, len(self.schema)))
            return
        extra = self.right_extra
        nulls = self._nulls
        out_rows: list[tuple] = []
        out_mults: list[int] = []
        keys = delta.key_column(self.right_key)
        left = self.left_index.get
        right_store = self.right_index
        # a key's right weight as folding the batch so far would leave it:
        # a fold of m moves the bucket's summed multiplicity by exactly m
        weights: dict[tuple, int] = {}
        pos = 0
        for key, multiplicity in zip(keys, mults):
            bucket = left(key)
            if bucket is not None:
                suffix = tuple(cols[i][pos] for i in extra)
                for left_row, m in bucket.items():
                    out_rows.append(left_row + suffix)
                    out_mults.append(multiplicity * m)
                before = weights.get(key)
                if before is None:
                    before = right_store.key_weight(key)
                after = weights[key] = before + multiplicity
                if before == 0 and after > 0:
                    for left_row, m in bucket.items():
                        out_rows.append(left_row + nulls)
                        out_mults.append(-m)
                elif before > 0 and after == 0:
                    for left_row, m in bucket.items():
                        out_rows.append(left_row + nulls)
                        out_mults.append(m)
            pos += 1
        right_store.insert_columns(keys, cols, mults)
        self.emit(ColumnDelta.from_rows(out_rows, out_mults, len(self.schema)))

    def state_delta(self, restriction: tuple = ()) -> Delta:
        out = Delta()
        for key, bucket in self.left_index.items():
            matches = self.right_index.get(key)
            if matches:
                for row, multiplicity in bucket.items():
                    for other, m2 in matches.items():
                        out.add(self._merge(row, other), multiplicity * m2)
            else:
                for row, multiplicity in bucket.items():
                    out.add(row + self._nulls, multiplicity)
        return out

    def memory_size(self) -> int:
        # the right count's entries are the right store's distinct keys
        return (
            self.left_index.size()
            + self.right_index.size()
            + len(self.right_index)
        )

    def memory_cells(self) -> int:
        return self.left_index.cells() + self.right_index.cells()


class UnionNode(Node):
    """∪ — bag union; the right side is permuted into the left layout."""

    def __init__(self, schema, right_permutation: tuple[int, ...]):
        super().__init__(schema)
        self.right_permutation = right_permutation
        # UNION arms frequently list columns in the same order; rebuilding
        # every tuple through an identity permutation is pure overhead
        self._identity = right_permutation == tuple(range(len(right_permutation)))

    def transform(self, delta: "Delta | ColumnDelta", side: int):
        if side == LEFT or self._identity:
            if type(delta) is ColumnDelta:
                return delta  # pass-through: columns are immutable downstream
            out = Delta()
            out.update(delta)  # empty-destination bulk copy, no per-row adds
            return out
        if type(delta) is ColumnDelta:
            # zero-copy column projection: permute the column list itself
            return ColumnDelta(
                [delta.columns[i] for i in self.right_permutation],
                delta.mults,
                delta.width,
            )
        out = Delta()
        for row, multiplicity in delta.items():
            out.add(tuple(row[i] for i in self.right_permutation), multiplicity)
        return out

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        self.emit(self.transform(delta, side))
