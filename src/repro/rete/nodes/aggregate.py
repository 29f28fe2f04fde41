"""Incremental grouping and aggregation (γ).

Maintains one aggregator state machine per group per aggregate column;
insertions and deletions adjust states, and the node emits
``-old_row, +new_row`` diffs for every touched group.  Groups with no
remaining rows disappear — except the global (key-less) group, which always
exists so that e.g. ``RETURN count(*)`` over an empty graph is ``0``
(``initialize`` emits that base row when the network is built).
"""

from __future__ import annotations

from ...algebra.expressions import (
    AggregateSpec,
    Aggregator,
    CompiledExpr,
    EvalContext,
)
from ..deltas import ColumnDelta, Delta, exact_items
from .base import Node


class _Group:
    __slots__ = ("aggregators", "row_count")

    def __init__(self, aggregators: list[Aggregator]):
        self.aggregators = aggregators
        self.row_count = 0


class AggregateNode(Node):
    def __init__(
        self,
        schema,
        key_fns: list[CompiledExpr],
        specs: list[AggregateSpec],
        arg_fns: list[CompiledExpr | None],
        ctx: EvalContext,
    ):
        super().__init__(schema)
        self.key_fns = key_fns
        self.specs = specs
        self.arg_fns = arg_fns
        self.ctx = ctx
        self.groups: dict[tuple, _Group] = {}
        self.is_global = not key_fns

    def _fresh_group(self) -> _Group:
        return _Group([spec.make_aggregator() for spec in self.specs])

    def _result_row(self, key: tuple, group: _Group) -> tuple:
        return key + tuple(a.result() for a in group.aggregators)

    def initialize(self) -> None:
        """Emit the base row of the always-present global group."""
        if self.is_global:
            group = self._fresh_group()
            self.groups[()] = group
            row = self._result_row((), group)
            self.emit(ColumnDelta.from_rows([row], [1], len(self.schema)))

    def apply(self, delta: ColumnDelta, side: int) -> None:
        # transition-sensitive boundary: aggregator state machines (notably
        # min/max undo logs) depend on net per-row changes, so each batch
        # consolidates at entry — type-exactly, so a row whose value only
        # changed type (1 → true) retracts from its old group
        touched: dict[tuple, tuple | None] = {}
        for row, multiplicity in exact_items(delta):
            key = tuple(fn(row, self.ctx) for fn in self.key_fns)
            group = self.groups.get(key)
            if key not in touched:
                touched[key] = (
                    self._result_row(key, group) if group is not None else None
                )
            if group is None:
                group = self._fresh_group()
                self.groups[key] = group
            values = [
                fn(row, self.ctx) if fn is not None else True
                for fn in self.arg_fns
            ]
            if multiplicity > 0:
                for aggregator, value in zip(group.aggregators, values):
                    aggregator.insert(value, multiplicity)
            else:
                for aggregator, value in zip(group.aggregators, values):
                    aggregator.remove(value, -multiplicity)
            group.row_count += multiplicity

        out = Delta()
        for key, old_row in touched.items():
            group = self.groups[key]
            if group.row_count < 0:
                raise AssertionError(f"negative group count for key {key}")
            alive = group.row_count > 0 or self.is_global
            new_row = self._result_row(key, group) if alive else None
            if not alive:
                del self.groups[key]
            if old_row == new_row:
                continue
            if old_row is not None:
                out.add(old_row, -1)
            if new_row is not None:
                out.add(new_row, 1)
        self.emit(ColumnDelta.from_delta(out, len(self.schema)))

    def state_delta(self, restriction: tuple = ()) -> Delta:
        out = Delta()
        for key, group in self.groups.items():
            out.add(self._result_row(key, group), 1)
        return out

    def memory_size(self) -> int:
        return len(self.groups)
