"""Incremental transitive closure (⋈*) — maintenance of atomic paths.

The paper's central design decision (§4): paths are *atomic* list values —
inserted and deleted as units, never patched.  ⋈* emits the **trails**
(edge-distinct walks, Cypher's variable-length-pattern semantics) that
start at a vertex of its left operand, so this node stores exactly those:
the trails of the traversal graph that start at a *live source*, a vertex
with at least one row in the left memory.  They are indexed three ways:

* by start vertex — to join with left rows,
* by end vertex — to extend on edge insertion,
* by member edge — to retract atomically on edge deletion.

An arc ``u —e→ v`` whose tail ``u`` is live is held only as ``u``'s
one-hop trail.  Every other arc sits in an *arc index* keyed by tail, so
no arc is stored twice, and a ⋈* whose every vertex is live stores no arc
outside its trails.  The current arcs are therefore the arc index plus the
live sources' one-hop trails, and a walk over them reads a live vertex's
continuations straight off its stored trails.

* A source *going live* (its first left row) walks its trails over the
  current arcs, up to ``max_hops``; a source losing its last left row drops
  them and returns its one-hop trails to the arc index.
* Edge insertion ``(u —e→ v)`` derives exactly the new trails
  ``p1 · e · p2`` where ``p1`` is a stored trail ending at ``u`` (or the
  empty trail at ``u`` if ``u`` is live), ``p2`` is a trail from ``v`` over
  the current arcs (possibly empty), ``e ∉ p1 ∪ p2`` and
  ``edges(p1) ∩ edges(p2) = ∅``.  Every trail from a live source containing
  the new edge decomposes *uniquely* this way around ``e``, so the rule is
  complete and duplicate-free; incremental transitive computability beyond
  first-order logic follows the approach of Bergmann et al. (paper ref [3]).
* Edge deletion retracts ``trails_by_edge[e]`` — the paper's "the previous
  path has to be deleted and the new one inserted" as an index lookup —
  and drops the edge's arcs from the arc index.

Trails are the one semantics of ⋈*: a maintained closure holds the same
bag the interpreter computes, so every ⋈* view and subplan is servable.
"""

from __future__ import annotations

from ...graph.values import PathValue
from ..deltas import ColumnDelta, Delta, index_insert
from .base import LEFT, Node

EDGES = 1

#: Cells one arc holds in the arc index: tail, edge, head (the cells of
#: the one-hop trail it stands for).
ARC_CELLS = 3


def _restricted_left(node: Node, left_width: int, restriction: tuple):
    """``left_index.items()`` of a ⋈* *node*, narrowed to the left rows
    that pass *restriction*'s pairs on left columns (targeted activation
    under a binding: only those sources' trails are expanded)."""
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


def _arcs_for(direction: str, s: int, t: int) -> tuple[tuple[int, int], ...]:
    """The traversal arcs ``(tail, head)`` of an edge ``s → t``."""
    if direction == "out":
        return ((s, t),)
    if direction == "in":
        return ((t, s),)
    if s == t:
        return ((s, t),)
    return ((s, t), (t, s))


class TransitiveClosureNode(Node):
    """⋈* with trail materialisation for the live sources (default mode).

    ``trails_by_start`` holds every trail of 1..``max_hops`` hops from each
    live source (``left_index``'s keys); ``arcs`` holds the arcs whose tail
    is not live.  With ``max_hops == 0`` no edge can reach the output, so
    the edge side is ignored.
    """

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
        # trails from live sources, triple-indexed
        self.trails_by_start: dict[int, set[PathValue]] = {}
        self.trails_by_end: dict[int, set[PathValue]] = {}
        self.trails_by_edge: dict[int, set[PathValue]] = {}
        # arcs with a tail that is not live: tail -> {edge: head}
        self.arcs: dict[int, dict[int, int]] = {}

    # -- trail bookkeeping ---------------------------------------------------

    def _store(self, trail: PathValue) -> None:
        self.trails_by_start.setdefault(trail.start, set()).add(trail)
        self.trails_by_end.setdefault(trail.end, set()).add(trail)
        for edge in trail.edges:
            self.trails_by_edge.setdefault(edge, set()).add(trail)

    def _discard(self, trail: PathValue) -> None:
        for index, key in (
            (self.trails_by_start, trail.start),
            (self.trails_by_end, trail.end),
        ):
            bucket = index[key]
            bucket.discard(trail)
            if not bucket:
                del index[key]
        for edge in trail.edges:
            bucket = self.trails_by_edge.get(edge)
            if bucket is not None:
                bucket.discard(trail)
                if not bucket:
                    del self.trails_by_edge[edge]

    def _walk(self, start: int, cap: int | None, banned: int | None) -> list:
        """``(vertices, edges)`` of every trail from *start* over the current
        arcs with at most *cap* hops and without edge *banned*, the empty
        trail first.

        A non-live vertex continues along its arcs in the arc index; a live
        one along its stored trails, which already are all its
        continuations, so the walk stops there.
        """
        live, stored, arcs = self.left_index, self.trails_by_start, self.arcs
        found = []
        stack = [((start,), ())]
        while stack:
            path = stack.pop()
            found.append(path)
            vertices, edges = path
            room = None if cap is None else cap - len(edges)
            if room == 0:
                continue
            at = vertices[-1]
            if at in live:
                taken = set(edges)
                for q in stored.get(at, ()):
                    if (
                        (room is None or len(q.edges) <= room)
                        and banned not in q.edges
                        and taken.isdisjoint(q.edges)
                    ):
                        found.append((vertices + q.vertices[1:], edges + q.edges))
                continue
            for edge, head in arcs.get(at, {}).items():
                if edge != banned and edge not in edges:
                    stack.append((vertices + (head,), edges + (edge,)))
        return found

    def _activate(self, source: int) -> None:
        """*source* gets its first left row: store its trails, which take
        over its arcs from the arc index."""
        if self.max_hops == 0:
            return
        walked = self._walk(source, self.max_hops, None)
        self.arcs.pop(source, None)
        for vertices, edges in walked[1:]:
            self._store(PathValue(vertices, edges))

    def _deactivate(self, source: int) -> None:
        """*source* lost its last left row: drop its trails and hand its
        one-hop trails back to the arc index as arcs."""
        trails = self.trails_by_start.get(source)
        if not trails:
            return
        returned = {}
        for trail in list(trails):
            if len(trail.edges) == 1:
                returned[trail.edges[0]] = trail.end
            self._discard(trail)
        if returned:
            self.arcs[source] = returned

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

    def apply(self, delta: ColumnDelta, side: int) -> None:
        # transition-sensitive boundary: trail derivation replays edge
        # occurrences one at a time, so each batch consolidates at entry
        rows = delta.to_delta()
        out = Delta()
        if side == LEFT:
            for row, multiplicity in rows.items():
                source = row[self.source_index]
                if source is None or not isinstance(source, int):
                    continue
                if source not in self.left_index:
                    self._activate(source)
                if self.min_hops == 0:
                    zero = PathValue((source,), ())
                    out.add(self._out_row(row, zero), multiplicity)
                for trail in self.trails_by_start.get(source, ()):
                    if len(trail) >= self.min_hops:
                        out.add(self._out_row(row, trail), multiplicity)
                index_insert(self.left_index, source, row, multiplicity)
                if source not in self.left_index:
                    self._deactivate(source)
        elif self.max_hops != 0:
            for row, multiplicity in rows.items():
                s, e, t = row[0], row[1], row[2]
                if multiplicity > 0:
                    for _ in range(multiplicity):
                        self._insert_edge(s, e, t, out)
                else:
                    for _ in range(-multiplicity):
                        self._remove_edge(s, e, t, out)
        self.emit(ColumnDelta.from_delta(out, len(self.schema)))

    def _insert_edge(self, s: int, e: int, t: int, out: Delta) -> None:
        cap = self.max_hops
        for u, v in _arcs_for(self.direction, s, t):
            prefixes = [
                p1
                for p1 in self.trails_by_end.get(u, ())
                if (cap is None or len(p1.edges) < cap) and e not in p1.edges
            ]
            if u in self.left_index:
                prefixes.append(PathValue((u,), ()))
            else:
                self.arcs.setdefault(u, {})[e] = v
            if not prefixes:
                continue
            shortest = min(len(p1.edges) for p1 in prefixes)
            suffixes = self._walk(v, None if cap is None else cap - 1 - shortest, e)
            for p1 in prefixes:
                edges1 = p1.edges
                taken = set(edges1)
                room = None if cap is None else cap - 1 - len(edges1)
                for vertices2, edges2 in suffixes:
                    if room is not None and len(edges2) > room:
                        continue
                    if taken and not taken.isdisjoint(edges2):
                        continue
                    trail = PathValue(p1.vertices + vertices2, edges1 + (e,) + edges2)
                    self._store(trail)
                    self._emit_trail_delta(out, trail, 1)

    def _remove_edge(self, s: int, e: int, t: int, out: Delta) -> None:
        for trail in list(self.trails_by_edge.get(e, ())):
            self._discard(trail)
            self._emit_trail_delta(out, trail, -1)
        for u, _ in _arcs_for(self.direction, s, t):
            bucket = self.arcs.get(u)
            if bucket is not None:
                bucket.pop(e, None)
                if not bucket:
                    del self.arcs[u]

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
        return (
            sum(len(s) for s in self.trails_by_start.values())
            + sum(len(b) for b in self.left_index.values())
            + sum(len(b) for b in self.arcs.values())
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
        arc_cells = ARC_CELLS * sum(len(b) for b in self.arcs.values())
        return trail_cells + left_cells + arc_cells
