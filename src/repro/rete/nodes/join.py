"""Binary beta nodes: natural join, antijoin, left outer join, union.

▷, ⟕ and ⋈* keep per-side memories indexed by the shared (natural-join)
attributes, and so does ⋈ unless one of its sides is a *probe side* (see
:class:`SideProbe`): a ⇑ or © input under σ and bare-column π only, keyed
on one of that input's id columns, which the node reads from the graph's
adjacency or vertex table instead of storing.  All follow the sequential
counting rule — an incoming delta is joined against the *other* side's
current memory, then folded into this side's memory (see :mod:`.base`,
which also states how a probe side keeps the rule exact).

Every memory is a :class:`~repro.rete.deltas.ColumnStore` — key cells
stored once per distinct key, payload values in parallel columns — and
every delta is a :class:`~repro.rete.deltas.ColumnDelta` batch (one
event's rows, a coalesced batch or a replayed state), so each node has
one loop per side: key columns are extracted with one C-level transpose,
the key column probes the store in one loop (``ColumnStore.pair``) and
the batch's value columns fold in directly (``insert_columns``: a bulk
copy into a store that is still empty, as every memory is at populate,
and the batch fold after that).
⋈ and the left sides of ▷ and ⟕ gather their output column by column
and build no row tuple at all.  All four maintenance rules are linear in
row occurrences, so the loops are exact on unconsolidated batches
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
from .base import LEFT, RIGHT, Node


def _complement(key: list[int], width: int) -> list[int]:
    """Payload columns of a *width*-wide row not covered by *key*."""
    covered = set(key)
    return [i for i in range(width) if i not in covered]


class SideProbe:
    """A ⋈ side the graph holds: the σ / bare-column π *chain* (bottom up)
    over the input node *source*, read by key instead of stored.

    *column* is the source's id column that the side's join-key position
    *position* holds — or both endpoints of an edge source
    (:data:`~.input.BETWEEN`), held at a pair of positions — and
    ``origin[c]`` is the source column under side column *c*.  A side
    with no σ on the way comes with no *chain*: its rows are just its
    origin columns.  :meth:`read` hands the side's rows under a set of
    keys back in a transient store laid out like the memory it replaces
    (``template``, set by the join), so every pairing loop of
    :class:`JoinNode` runs over it unchanged.
    """

    __slots__ = (
        "side", "source", "column", "position", "chain", "origin", "picks", "template"
    )

    def __init__(self, side, source, column, position, chain, origin):
        self.side = side
        self.source = source
        self.column = column
        self.position = position
        self.chain = tuple(chain)
        self.origin = tuple(origin)
        # no chain to run: the side is its origin columns, built alone
        self.picks = None if self.chain else self.origin
        self.template: ColumnStore | None = None

    def _probe(self, column: int, values) -> ColumnDelta:
        return self.source.probe(column, values, self.chain, self.picks)

    def read(self, keys) -> ColumnStore:
        """The side's rows whose probed id is that of one of *keys* (a
        superset of the rows under *keys*)."""
        position = self.position
        if type(position) is tuple:
            first, second = position
            values = [(key[first], key[second]) for key in keys]
        else:
            values = [key[position] for key in keys]
        return self._load(self._probe(self.column, values))

    def restricted(self, pairs) -> "ColumnStore | None":
        """The side's rows that can hold ``row[c] == value`` for every
        ``(c, value)`` of *pairs*, read through the first pair the graph
        indexes (an id first); ``None`` when none is indexed."""
        source, origin = self.source, self.origin
        ids = source.id_columns
        ordered = sorted(pairs, key=lambda pair: origin[pair[0]] not in ids)
        for column, value in ordered:
            found = source.lookup(origin[column], value)
            if found is not None:
                return self._load(self._probe(*found))
        return None

    def _load(self, delta: ColumnDelta) -> ColumnStore:
        return self.template.over(delta.columns, delta.mults)


class JoinNode(Node):
    """⋈ — natural join with two hash memories, or one and a probe side.

    With a probe side (:class:`SideProbe`) that side keeps no store: a
    delta on the probe side pairs with the stored memory and folds
    nothing, and a delta on the *stored* side pairs with the probe side's
    rows read from the graph.  The graph is already in its new state, so
    while a propagation is in flight a stored-side delta waits in the
    engine's :class:`~.base.Propagation` and pairs once the change's
    probe-side deltas have (:meth:`fold_deferred`): ``L_old ⋈ ΔR`` first,
    then ``ΔL ⋈ R_new`` (see :mod:`.base`).  The queue is per
    ``(join, side)`` and drains upstream joins first: the deltas waiting
    for this join's stored side when its entry is popped arrive as one
    batch, merged unconsolidated in arrival order, and pair with one read
    of the graph.
    """

    def __init__(
        self,
        schema,
        left_key: list[int],
        right_key: list[int],
        right_extra: list[int],
        probe: SideProbe | None = None,
        propagation=None,
    ):
        super().__init__(schema)
        self.left_key = left_key
        self.right_key = right_key
        self.right_extra = right_extra
        left_width = len(schema) - len(right_extra)
        left = ColumnStore(left_key, _complement(left_key, left_width))
        # payload order == right_extra: probe hits are merge suffixes
        right = ColumnStore(right_key, right_extra)
        #: the side read from the graph, or ``None`` when both are stored
        self.probe = probe
        self.probe_side = None if probe is None else probe.side
        if probe is not None:
            probe.template = (left, right)[probe.side]
        self.left_index = None if self.probe_side == LEFT else left
        self.right_index = None if self.probe_side == RIGHT else right
        self.propagation = propagation
        #: when this join's waiting deltas drain (:meth:`.Propagation.rank`)
        self.rank = 0 if probe is None else propagation.rank()
        #: probe-side reads, and the rows they handed back
        self.probe_reads = 0
        self.probe_rows = 0

    def _merge(self, left_row: tuple, right_row: tuple) -> tuple:
        return left_row + tuple(right_row[i] for i in self.right_extra)

    def apply(self, delta: ColumnDelta, side: int) -> None:
        if (
            self.probe is not None
            and side != self.probe_side
            and self.propagation.active
        ):
            self.propagation.defer(self, delta, side)
        else:
            self.fold_deferred(delta, side)

    def _other(self, side: int, keys) -> ColumnStore:
        """The memory opposite *side*: its store, or the probe side's rows
        under *keys* read from the graph."""
        store = self.right_index if side == LEFT else self.left_index
        if store is not None:
            return store
        store = self.probe.read(keys)
        self.probe_reads += 1
        self.probe_rows += len(store.mults)
        return store

    def fold_deferred(self, delta: ColumnDelta, side: int) -> None:
        """Pair *delta* with the other side and fold it into its own (a
        probe side folds nothing); a stored-side delta the propagation held
        back comes here when it ends.  Gathered: one probe loop pairs batch
        positions with the other store's matching slots (:meth:`_gather`),
        and the value columns fold in directly (``insert_columns``).  No
        row tuple is built."""
        keys = delta.key_column(self.left_key if side == LEFT else self.right_key)
        out = self._gather(delta, side, keys, self._other(side, keys))
        own = self.left_index if side == LEFT else self.right_index
        if own is not None:
            own.insert_columns(keys, delta.columns, delta.mults)
        if out is not None:
            self.emit(out)

    def _gather(
        self, delta: ColumnDelta, side: int, keys, probed
    ) -> "ColumnDelta | None":
        """*delta* on *side* paired with the *probed* store: every output
        column is gathered from its source — batch columns by position,
        stored payload by slot, and a left row's key cells from the
        probing batch's key columns."""
        at, slots, _ = probed.pair(keys)
        if not at:
            return None
        cols = delta.columns
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
        out_mults = list(map(mul, from_batch(delta.mults), from_store(probed.mults)))
        return ColumnDelta(out, out_mults, len(self.schema))

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
        restriction is the full fold.  A probe side answers by key from
        the graph (:meth:`_probed_state`).
        """
        if self.probe is not None:
            return self._probed_state(restriction)
        out = Delta()
        left_pairs, right_pairs = self._split(restriction)
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

    def _split(self, restriction: tuple) -> tuple[list, list]:
        """*restriction* as ``(column, value)`` pairs on the left rows and
        on the right rows."""
        left_pairs: list[tuple] = []
        right_pairs: list[tuple] = []
        left_width = len(self.schema) - len(self.right_extra)
        for column, value in restriction:
            if column < left_width:
                left_pairs.append((column, value))
            else:
                right_pairs.append((self.right_extra[column - left_width], value))
        return left_pairs, right_pairs

    def _probed_state(self, restriction: tuple) -> Delta:
        """:meth:`state_delta` with a probe side.  Restricted on the stored
        side only or both, the stored side selects and the probe side is
        read by the surviving keys; restricted on the probe side only, the
        graph answers by key — an id through the adjacency, a pushed
        property through its index or a label scan
        (:meth:`SideProbe.restricted`) — and each key read probes the
        stored side; unrestricted, the whole stored side reads by key."""
        out = Delta()
        pairs = self._split(restriction)
        probe_side = self.probe_side
        probe_pairs, stored_pairs = pairs[probe_side], pairs[1 - probe_side]
        stored = self.left_index if probe_side == RIGHT else self.right_index
        probed = None
        if probe_pairs and not stored_pairs:
            probed = self.probe.restricted(probe_pairs)
        if probed is not None:
            self.probe_reads += 1
            self.probe_rows += len(probed.mults)
            self.replay_scanned += len(probed.mults)
            for key, bucket in probed.items():
                if probe_side == RIGHT:
                    entry = stored.stored(key)
                    if entry is not None:
                        self._cross(out, entry[1], bucket)
                else:
                    matches = stored.get(key)
                    if matches:
                        self._cross(out, bucket, matches)
            return out
        if stored_pairs:
            examined, entries = stored.select(stored_pairs)
            self.replay_scanned += examined
        else:
            entries = list(stored.items())
        probed = self._other(1 - probe_side, [key for key, _ in entries])
        for key, bucket in entries:
            if probe_side == RIGHT:
                matches = probed.get(key)
                if matches:
                    self._cross(out, bucket, matches)
            else:
                entry = probed.stored(key)
                if entry is not None:
                    self._cross(out, entry[1], bucket)
        return out

    def _cross(self, out: Delta, bucket, matches) -> None:
        for row, multiplicity in bucket.items():
            for other, m2 in matches.items():
                out.add(self._merge(row, other), multiplicity * m2)

    def _stores(self) -> list[ColumnStore]:
        stores = (self.left_index, self.right_index)
        return [store for store in stores if store is not None]

    def memory_size(self) -> int:
        return sum(store.size() for store in self._stores())

    def memory_cells(self) -> int:
        return sum(store.cells() for store in self._stores())


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

    def apply(self, delta: ColumnDelta, side: int) -> None:
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

    def apply(self, delta: ColumnDelta, side: int) -> None:
        """The right side interleaves joins and count transitions per
        occurrence: a key's right count is the store's bucket weight
        (``key_weight``) plus what the batch has moved it by so far, so
        the zero-crossing that toggles null padding is decided per
        occurrence and the store folds the batch once, after the loop.
        The left side builds no row tuple: matches are gathered as in ⋈,
        misses taken from the batch and padded with ``None`` columns."""
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

    def transform(self, delta: ColumnDelta, side: int) -> ColumnDelta:
        if side == LEFT or self._identity:
            return delta  # pass-through: columns are immutable downstream
        # zero-copy column projection: permute the column list itself
        return ColumnDelta(
            [delta.columns[i] for i in self.right_permutation],
            delta.mults,
            delta.width,
        )

    def apply(self, delta: ColumnDelta, side: int) -> None:
        self.emit(self.transform(delta, side))
