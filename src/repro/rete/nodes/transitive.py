"""Incremental transitive closure (⋈*) — maintenance of atomic paths.

The paper's central design decision (§4): paths are *atomic* list values —
inserted and deleted as units, never patched.  This node materialises every
**trail** (edge-distinct walk, Cypher's variable-length-pattern semantics)
of the traversal graph, indexed three ways:

* by start vertex — to join with left rows,
* by end vertex — to extend on edge insertion,
* by member edge — to retract atomically on edge deletion.

Edge insertion ``(u —e→ v)`` derives exactly the new trails
``p1 · e · p2`` where ``p1`` ends at ``u``, ``p2`` starts at ``v`` (either
may be the empty trail at that vertex), ``e ∉ p1 ∪ p2`` and
``edges(p1) ∩ edges(p2) = ∅``.  Every trail containing the new edge
decomposes *uniquely* this way around ``e``, so the rule is complete and
duplicate-free; incremental transitive computability beyond first-order
logic follows the approach of Bergmann et al. (paper ref [3]).

Edge deletion retracts ``trails_by_edge[e]`` — the paper's "the previous
path has to be deleted and the new one inserted" as an index lookup.

A cheaper pair-counting alternative (for queries that never observe the
path) lives in :class:`ReachabilityNode`; the trade-off is benchmarked as
ablation D2.
"""

from __future__ import annotations

from ...graph.values import PathValue
from ..deltas import ColumnDelta, Delta, as_row_delta, index_insert
from .base import LEFT, Node

EDGES = 1


def _restricted_left(node: Node, left_width: int, restriction: tuple):
    """``left_index.items()`` of a ⋈* *node*, narrowed to the left rows
    that pass *restriction*'s pairs on left columns (targeted activation
    under a binding: only those sources' trails/targets are expanded)."""
    pairs = [(c, v) for c, v in restriction if c < left_width]
    if not pairs:
        return node.left_index.items()
    narrowed = []
    for source, rows in node.left_index.items():
        node.replay_scanned += len(rows)
        kept = {
            row: multiplicity
            for row, multiplicity in rows.items()
            if all(row[c] == v for c, v in pairs)
        }
        if kept:
            narrowed.append((source, kept))
    return narrowed


class TransitiveClosureNode(Node):
    """⋈* with full trail materialisation (default mode)."""

    def __init__(
        self,
        schema,
        source_index: int,
        direction: str,
        min_hops: int,
        max_hops: int | None,
        emit_path: bool,
    ):
        super().__init__(schema)
        self.source_index = source_index
        self.direction = direction
        self.min_hops = min_hops
        self.max_hops = max_hops
        self.emit_path = emit_path
        # left memory: source vertex -> {left row: multiplicity}
        self.left_index: dict[int, dict[tuple, int]] = {}
        # trail store, triple-indexed
        self.trails_by_start: dict[int, set[PathValue]] = {}
        self.trails_by_end: dict[int, set[PathValue]] = {}
        self.trails_by_edge: dict[int, set[PathValue]] = {}

    # -- trail bookkeeping ---------------------------------------------------

    def _store(self, trail: PathValue) -> None:
        self.trails_by_start.setdefault(trail.start, set()).add(trail)
        self.trails_by_end.setdefault(trail.end, set()).add(trail)
        for edge in trail.edges:
            self.trails_by_edge.setdefault(edge, set()).add(trail)

    def _discard(self, trail: PathValue) -> None:
        self.trails_by_start[trail.start].discard(trail)
        self.trails_by_end[trail.end].discard(trail)
        for edge in trail.edges:
            bucket = self.trails_by_edge.get(edge)
            if bucket is not None:
                bucket.discard(trail)
                if not bucket:
                    del self.trails_by_edge[edge]

    def _new_trails(self, u: int, e: int, v: int) -> list[PathValue]:
        """All trails created by inserting arc ``u —e→ v``."""
        empty_u = PathValue((u,), ())
        empty_v = PathValue((v,), ())
        prefixes = list(self.trails_by_end.get(u, ())) + [empty_u]
        suffixes = list(self.trails_by_start.get(v, ())) + [empty_v]
        out: list[PathValue] = []
        cap = self.max_hops
        for p1 in prefixes:
            edges1 = set(p1.edges)
            if e in edges1:
                continue
            for p2 in suffixes:
                length = len(p1) + 1 + len(p2)
                if cap is not None and length > cap:
                    continue
                if e in p2.edges:
                    continue
                if edges1 and edges1.intersection(p2.edges):
                    continue
                out.append(
                    PathValue(
                        p1.vertices + p2.vertices,
                        p1.edges + (e,) + p2.edges,
                    )
                )
        return out

    # -- output emission -------------------------------------------------------

    def _out_row(self, left_row: tuple, trail: PathValue) -> tuple:
        if self.emit_path:
            return left_row + (trail.end, trail)
        return left_row + (trail.end,)

    def _emit_trail_delta(self, out: Delta, trail: PathValue, sign: int) -> None:
        if len(trail) < self.min_hops:
            return
        for left_row, multiplicity in self.left_index.get(trail.start, {}).items():
            out.add(self._out_row(left_row, trail), sign * multiplicity)

    # -- delta application --------------------------------------------------------

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        # transition-sensitive boundary: trail derivation replays edge
        # occurrences one at a time, so columnar batches consolidate at entry
        rows = as_row_delta(delta)
        out = Delta()
        if side == LEFT:
            for row, multiplicity in rows.items():
                source = row[self.source_index]
                if source is None or not isinstance(source, int):
                    continue
                if self.min_hops == 0:
                    zero = PathValue((source,), ())
                    out.add(self._out_row(row, zero), multiplicity)
                for trail in self.trails_by_start.get(source, ()):
                    if len(trail) >= self.min_hops:
                        out.add(self._out_row(row, trail), multiplicity)
                index_insert(self.left_index, source, row, multiplicity)
        else:
            for row, multiplicity in rows.items():
                s, e, t = row[0], row[1], row[2]
                if multiplicity > 0:
                    for _ in range(multiplicity):
                        self._insert_edge(s, e, t, out)
                else:
                    for _ in range(-multiplicity):
                        self._remove_edge(e, out)
        self.emit_like(out, delta)

    def _arcs_for(self, s: int, t: int) -> list[tuple[int, int]]:
        if self.direction == "out":
            return [(s, t)]
        if self.direction == "in":
            return [(t, s)]
        if s == t:
            return [(s, t)]
        return [(s, t), (t, s)]

    def _insert_edge(self, s: int, e: int, t: int, out: Delta) -> None:
        for u, v in self._arcs_for(s, t):
            created = self._new_trails(u, e, v)
            for trail in created:
                self._store(trail)
                self._emit_trail_delta(out, trail, 1)

    def _remove_edge(self, e: int, out: Delta) -> None:
        doomed = list(self.trails_by_edge.get(e, ()))
        for trail in doomed:
            self._discard(trail)
            self._emit_trail_delta(out, trail, -1)
        self.trails_by_edge.pop(e, None)

    def state_delta(self, restriction: tuple = ()) -> Delta:
        out = Delta()
        left_width = len(self.schema) - (2 if self.emit_path else 1)
        for source, rows in _restricted_left(self, left_width, restriction):
            trails = [
                trail
                for trail in self.trails_by_start.get(source, ())
                if len(trail) >= self.min_hops
            ]
            for row, multiplicity in rows.items():
                if self.min_hops == 0:
                    zero = PathValue((source,), ())
                    out.add(self._out_row(row, zero), multiplicity)
                for trail in trails:
                    out.add(self._out_row(row, trail), multiplicity)
        return out

    def memory_size(self) -> int:
        return sum(len(s) for s in self.trails_by_start.values()) + sum(
            len(b) for b in self.left_index.values()
        )

    def memory_cells(self) -> int:
        trail_cells = sum(
            len(t.vertices) + len(t.edges)
            for trails in self.trails_by_start.values()
            for t in trails
        )
        left_cells = sum(
            len(row) for bucket in self.left_index.values() for row in bucket
        )
        return trail_cells + left_cells


class ReachabilityNode(Node):
    """⋈* in pair mode — ablation D2 (cf. Bergmann et al. [3]).

    Maintains only ``(source, target)`` reachability with multiplicity 1,
    recomputing the reachable set of each *active* source (sources present
    in the left memory) by BFS when the edge set changes.  Valid only when
    the query never observes the path value and deduplicates results (the
    engine's ``transitive_mode="reachability"`` opt-in); supports
    ``min_hops <= 1`` and no ``max_hops`` cap.
    """

    def __init__(self, schema, source_index: int, direction: str, min_hops: int):
        if min_hops > 1:
            raise ValueError("reachability mode supports min_hops <= 1 only")
        super().__init__(schema)
        self.source_index = source_index
        self.direction = direction
        self.min_hops = min_hops
        self.left_index: dict[int, dict[tuple, int]] = {}
        self.arcs: dict[int, dict[int, set[int]]] = {}  # u -> v -> {edge ids}
        self.reachable: dict[int, set[int]] = {}  # source -> targets

    def _add_arc(self, u: int, v: int, e: int) -> None:
        self.arcs.setdefault(u, {}).setdefault(v, set()).add(e)

    def _remove_arc(self, u: int, v: int, e: int) -> None:
        targets = self.arcs.get(u)
        if not targets:
            return
        edges = targets.get(v)
        if not edges:
            return
        edges.discard(e)
        if not edges:
            del targets[v]
            if not targets:
                del self.arcs[u]

    def _bfs(self, source: int) -> set[int]:
        seen: set[int] = set()
        frontier = [source]
        visited = {source}
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self.arcs.get(u, {}):
                    if v not in seen:
                        seen.add(v)
                    if v not in visited:
                        visited.add(v)
                        nxt.append(v)
            frontier = nxt
        if self.min_hops == 0:
            seen.add(source)
        return seen

    def _emit_target_diff(
        self, out: Delta, source: int, before: set[int], after: set[int]
    ) -> None:
        rows = self.left_index.get(source, {})
        for target in after - before:
            for left_row, m in rows.items():
                out.add(left_row + (target,), m)
        for target in before - after:
            for left_row, m in rows.items():
                out.add(left_row + (target,), -m)

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        # transition-sensitive boundary (same rule as the trail mode above)
        rows = as_row_delta(delta)
        out = Delta()
        if side == LEFT:
            for row, multiplicity in rows.items():
                source = row[self.source_index]
                if source is None or not isinstance(source, int):
                    continue
                first_row_for_source = source not in self.reachable
                if first_row_for_source:
                    self.reachable[source] = self._bfs(source)
                for target in self.reachable[source]:
                    out.add(row + (target,), multiplicity)
                index_insert(self.left_index, source, row, multiplicity)
                if source not in self.left_index:
                    del self.reachable[source]
        else:
            for row, multiplicity in rows.items():
                s, e, t = row[0], row[1], row[2]
                arcs = (
                    [(s, t)]
                    if self.direction == "out"
                    else [(t, s)]
                    if self.direction == "in"
                    else ([(s, t)] if s == t else [(s, t), (t, s)])
                )
                for u, v in arcs:
                    if multiplicity > 0:
                        self._add_arc(u, v, e)
                    else:
                        self._remove_arc(u, v, e)
            for source in list(self.reachable):
                before = self.reachable[source]
                after = self._bfs(source)
                if before != after:
                    self._emit_target_diff(out, source, before, after)
                    self.reachable[source] = after
        self.emit_like(out, delta)

    def state_delta(self, restriction: tuple = ()) -> Delta:
        out = Delta()
        left_width = len(self.schema) - 1
        for source, rows in _restricted_left(self, left_width, restriction):
            targets = self.reachable.get(source, ())
            for row, multiplicity in rows.items():
                for target in targets:
                    out.add(row + (target,), multiplicity)
        return out

    def memory_size(self) -> int:
        return sum(len(v) for v in self.reachable.values()) + sum(
            len(b) for b in self.left_index.values()
        )

    def memory_cells(self) -> int:
        return 2 * sum(len(v) for v in self.reachable.values()) + sum(
            len(row) for bucket in self.left_index.values() for row in bucket
        )
