"""Stateless and lightly-stateful unary nodes: σ, π, δ (dedup), unwind.

The stateless nodes (σ, π, ω and the binding-indexed σ's partitions) are
counting-linear: their ``transform`` runs a
:class:`~repro.rete.deltas.ColumnDelta` batch through the generated column
form of its expressions (:class:`~repro.algebra.expressions.Generated`
``.cols``), and the batch never becomes row tuples.  δ (dedup) is
transition-sensitive: it consolidates each batch at entry
(:meth:`~repro.rete.deltas.ColumnDelta.to_delta`) and emits its answer
transposed.
"""

from __future__ import annotations

from typing import Any

from ...algebra.expressions import CompiledExpr, EvalContext, Generated
from ...graph.values import ListValue, freeze_value
from ..deltas import ColumnDelta, Delta, bag_insert
from .base import Node

#: atom types whose Python hashing/equality agree with Cypher ``=`` closely
#: enough for value-index bucketing (a bucket is only ever a *candidate*
#: set — the full predicate re-confirms every hit, so Python's coarser
#: ``1 == True == 1.0`` conflation merely over-approximates, never corrupts)
_INDEXABLE_ATOMS = (bool, int, float, str)

#: shared empty context for evaluating parameter-free expressions
_NO_PARAMS = EvalContext({})


def _select(
    predicate: Generated, ctx: EvalContext, delta: ColumnDelta
) -> ColumnDelta:
    """The part of *delta* on which *predicate* is exactly true."""
    keep = predicate.cols(delta.columns, len(delta.mults), ctx)
    # a batch is immutable once emitted: all kept means the same batch
    return delta if len(keep) == len(delta.mults) else delta.take(keep)


class SelectionNode(Node):
    """σ — forwards rows whose predicate is exactly ``true``.

    Stateless: deltas filter the same way in both directions, so a
    retraction of a previously-passed row passes again and cancels
    downstream (counting maintenance of σ).
    """

    def __init__(self, schema, predicate: Generated, ctx: EvalContext):
        super().__init__(schema)
        self.predicate = predicate
        self.ctx = ctx

    def transform(self, delta: ColumnDelta, side: int) -> ColumnDelta:
        return _select(self.predicate, self.ctx, delta)

    def apply(self, delta: ColumnDelta, side: int) -> None:
        self.emit(self.transform(delta, side))

    def upstream_restriction(self, restriction: tuple, side: int) -> tuple:
        return restriction  # σ keeps its input's columns


class SelectionPartitionNode(Node):
    """One live binding's output channel of a binding-indexed σ.

    The partition is the *per-binding face* of a shared
    :class:`BindingIndexedSelectionNode`: downstream (per-view) nodes
    subscribe to it, so detaching one binding's view never disturbs the
    subscribers of any other binding.  It is stateless — its current
    output is reconstructed by folding the owner's predicate (under this
    partition's resolved bindings) over the shared core's state, exactly
    the ``transform`` protocol the sharing layer already uses for plain
    stateless nodes.  ``restriction`` — this binding's ``(column, atom)``
    equality pairs, set by the owner when the binding is value-indexed on
    bare columns — lets that fold ask the core for just the rows the
    predicate can accept instead of its whole state.
    """

    def __init__(self, schema, owner: "BindingIndexedSelectionNode", ctx: EvalContext):
        super().__init__(schema)
        self.owner = owner
        self.ctx = ctx
        self.restriction: tuple[tuple[int, Any], ...] = ()

    def passes(self, row: tuple) -> bool:
        return self.owner.predicate.row(row, self.ctx) is True

    def transform(self, delta: ColumnDelta, side: int) -> ColumnDelta:
        return _select(self.owner.predicate, self.ctx, delta)

    def apply(self, delta: ColumnDelta, side: int) -> None:  # pragma: no cover
        raise AssertionError("partitions are fed by their owning node")

    def upstream_restriction(self, restriction: tuple, side: int) -> tuple:
        return restriction + self.restriction


class BindingIndexedSelectionNode(Node):
    """Parameterised σ shared across *differing* bindings (value-indexed).

    One node serves every live binding of a parameterised selection: it is
    fed once by the shared binding-free core below the σ, and keeps one
    :class:`SelectionPartitionNode` per binding as its output partitions.
    When the predicate contains ``expr = $param`` conjuncts, partitions
    are indexed by their binding's *composite* value tuple over those
    parameters (``a.x = $p AND a.y = $q`` becomes one two-component key),
    so routing an input row costs one discriminant evaluation per
    component plus a single dict probe — O(matching bindings), not O(live
    bindings) — the alpha-memory hashing trick that makes "the same view
    once per user" affordable.  Buckets are candidate sets only: the full
    predicate re-confirms each hit under the partition's own bindings, so
    index coarseness (Python equality vs Cypher ``=``) can never leak a
    row into the wrong binding.

    Partitions any of whose indexed bindings is null or a collection — and
    every partition when no equality conjunct exists — fall back to the
    scan list, which evaluates the predicate per partition exactly like
    today's per-binding σ nodes (still sharing the core's memory and
    per-event translation work).

    When every discriminant expression is a bare column reference, the
    node extracts the whole composite key column with one C-level
    transpose (:meth:`~repro.rete.deltas.ColumnDelta.key_column`) instead
    of evaluating compiled expressions per row.
    """

    def __init__(
        self,
        schema,
        predicate: Generated,
        param_order: tuple[str, ...],
        discriminants: "tuple[tuple[int, CompiledExpr, int | None], ...] | None" = None,
    ):
        super().__init__(schema)
        self.predicate = predicate
        #: the creating view's parameter names, in generalised (first
        #: occurrence) order — later views translate their own names to
        #: these positions when a partition's evaluation context is built
        self.param_order = param_order
        if not discriminants:
            self._disc_names: tuple[str, ...] | None = None
            self._disc_exprs: tuple[CompiledExpr, ...] | None = None
            self._disc_cols: tuple[int, ...] | None = None
        else:
            self._disc_names = tuple(
                param_order[position] for position, _, _ in discriminants
            )
            self._disc_exprs = tuple(expr for _, expr, _ in discriminants)
            cols = tuple(col for _, _, col in discriminants)
            # all-or-nothing: the zero-eval composite key column is only
            # sound when every component is a direct column projection
            self._disc_cols = cols if all(c is not None for c in cols) else None
        self._partitions: dict[tuple, SelectionPartitionNode] = {}
        #: composite indexed-binding value tuple → candidate partitions
        self._index: dict[tuple, list[SelectionPartitionNode]] = {}
        #: partitions the index cannot discriminate (no equality conjunct,
        #: null or collection binding component) — always evaluated
        self._scan: list[SelectionPartitionNode] = []

    # -- partition lifecycle -------------------------------------------------

    def _index_value(self, facade: SelectionPartitionNode):
        """(indexable, key tuple) classification of one partition's binding."""
        if self._disc_names is None:
            return False, None
        key = []
        for name in self._disc_names:
            value = freeze_value(facade.ctx.parameters.get(name))
            if value is None or not isinstance(value, _INDEXABLE_ATOMS):
                return False, None
            key.append(value)
        return True, tuple(key)

    def add_partition(self, binding: tuple, facade: SelectionPartitionNode) -> None:
        self._partitions[binding] = facade
        indexable, key = self._index_value(facade)
        if indexable:
            self._index.setdefault(key, []).append(facade)
            if self._disc_cols is not None:
                facade.restriction = tuple(zip(self._disc_cols, key))
        else:
            self._scan.append(facade)

    def remove_partition(self, binding: tuple) -> None:
        facade = self._partitions.pop(binding)
        indexable, key = self._index_value(facade)
        if indexable:
            bucket = self._index[key]
            bucket.remove(facade)
            if not bucket:
                del self._index[key]
        else:
            self._scan.remove(facade)

    @property
    def has_partitions(self) -> bool:
        return bool(self._partitions)

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    # -- propagation ---------------------------------------------------------

    def _candidates(self, row: tuple):
        values = []
        try:
            for expr in self._disc_exprs:
                values.append(expr(row, _NO_PARAMS))
        except Exception:
            # the predicate would raise the same way per partition; let the
            # scan below reproduce the baseline behaviour faithfully
            return self._partitions.values()
        key = []
        for value in values:
            if value is None:
                # ``expr = $param`` is unknown for null, never true: no
                # binding can accept this row through the indexed conjunct
                return ()
            if not isinstance(value, _INDEXABLE_ATOMS):
                # collection-valued component: only collection bindings
                # (scan list) can match — Cypher cross-type equality is
                # false, so no all-atom indexed binding need look
                return self._scan
            key.append(value)
        return self._index.get(tuple(key), ())

    def _key_candidates(self, key: tuple):
        """Candidates for a prebuilt composite key (direct-column path)."""
        for value in key:
            if value is None:
                return ()
            if not isinstance(value, _INDEXABLE_ATOMS):
                return self._scan
        return self._index.get(key, ())

    def apply(self, delta: ColumnDelta, side: int) -> None:
        if not self._partitions:
            return
        if self._disc_exprs is None:
            for facade in self._partitions.values():
                facade.emit(facade.transform(delta, side))
            return
        if self._disc_cols is not None:
            # direct-column path: route on the prebuilt composite key
            # column and materialise a row tuple only at the (typically
            # few) positions whose key has candidate partitions
            columns = delta.columns
            keys = delta.key_column(self._disc_cols)
            found = [
                (position, tuple(column[position] for column in columns), candidates)
                for position, candidates in enumerate(map(self._key_candidates, keys))
                if candidates
            ]
        else:
            found = [
                (position, row, self._candidates(row))
                for position, row in enumerate(delta.rows())
            ]
        mults = delta.mults
        routed: dict[int, tuple[SelectionPartitionNode, list, list]] = {}
        for position, row, candidates in found:
            for facade in candidates:
                if facade.passes(row):
                    slot = routed.get(id(facade))
                    if slot is None:
                        slot = routed[id(facade)] = (facade, [], [])
                    slot[1].append(row)
                    slot[2].append(mults[position])
        width = len(self.schema)
        for facade, out_rows, out_mults in routed.values():
            facade.emit(ColumnDelta.from_rows(out_rows, out_mults, width))


class ProjectionNode(Node):
    """π — maps each row through generated item expressions (bag π:
    multiplicities are preserved, collisions accumulate)."""

    def __init__(
        self,
        schema,
        items: Generated,
        ctx: EvalContext,
        source_cols: "tuple[int | None, ...]",
    ):
        super().__init__(schema)
        self.items = items
        self.ctx = ctx
        #: per output column, the input column it copies unchanged (``None``
        #: for computed items) — what lets a restriction pass through π
        self.source_cols = source_cols

    def transform(self, delta: ColumnDelta, side: int) -> ColumnDelta:
        mults = delta.mults  # shared with the input: batches are immutable
        columns = self.items.cols(delta.columns, len(mults), self.ctx)
        return ColumnDelta(columns, mults, len(columns))

    def apply(self, delta: ColumnDelta, side: int) -> None:
        self.emit(self.transform(delta, side))

    def upstream_restriction(self, restriction: tuple, side: int) -> tuple:
        sources = self.source_cols
        return tuple(
            (sources[column], value)
            for column, value in restriction
            if sources[column] is not None
        )


class DedupNode(Node):
    """δ — collapses multiplicities to one; emits only 0↔positive edges.

    Transition-sensitive: defined on net per-row changes, so each batch
    consolidates at entry (boundary-materialisation rule)."""

    def __init__(self, schema):
        super().__init__(schema)
        self.counts: dict[tuple, int] = {}

    def apply(self, delta: ColumnDelta, side: int) -> None:
        out = Delta()
        for row, multiplicity in delta.to_delta().items():
            before = self.counts.get(row, 0)
            after = bag_insert(self.counts, row, multiplicity)
            if before == 0 and after > 0:
                out.add(row, 1)
            elif before > 0 and after == 0:
                out.add(row, -1)
            elif after < 0:
                raise AssertionError(f"negative multiplicity for {row}")
        self.emit(ColumnDelta.from_delta(out, len(self.schema)))

    def state_delta(self, restriction: tuple = ()) -> Delta:
        out = Delta()
        for row in self.counts:
            out.add(row, 1)
        return out

    def memory_size(self) -> int:
        return len(self.counts)

    def memory_cells(self) -> int:
        return sum(len(row) for row in self.counts)


class UnwindNode(Node):
    """ω — one output row per element of the list value (null/empty: none;
    scalars pass through as a single row, per openCypher)."""

    def __init__(self, schema, expression: Generated, ctx: EvalContext):
        super().__init__(schema)
        #: a one-item projection: ``row`` gives ``(value,)``, ``cols`` ``[values]``
        self.expression = expression
        self.ctx = ctx

    def transform(self, delta: ColumnDelta, side: int) -> ColumnDelta:
        (values,) = self.expression.cols(delta.columns, len(delta.mults), self.ctx)
        positions: list[int] = []
        elements: list = []
        for position, value in enumerate(values):
            if value is None:
                continue
            if isinstance(value, ListValue):
                positions.extend([position] * len(value))
                elements.extend(value)
            else:
                positions.append(position)
                elements.append(value)
        out = delta.take(positions)
        return ColumnDelta(out.columns + [elements], out.mults, out.width + 1)

    def apply(self, delta: ColumnDelta, side: int) -> None:
        self.emit(self.transform(delta, side))
