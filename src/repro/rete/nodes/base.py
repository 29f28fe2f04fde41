"""Node base class and propagation discipline.

The network is a DAG of nodes; every node consumes deltas on one or two
input *sides* and emits an output delta to its subscribers, updating its
own memory in the same step.  Propagation is synchronous and depth-first,
one elementary graph change at a time, which makes the classic sequential
maintenance rule exact:

    Δ(L ⋈ R) = ΔL ⋈ R_old   followed by   L_new ⋈ ΔR

(each side's delta is joined against the other side's *current* memory,
then folded into this side's memory before anything else runs).

A ⋈ whose side is a *probe side* (:class:`~.join.SideProbe`) keeps no
memory for it: that side's current state is read from the graph.  The
graph, though, is already in its new state while a change propagates —
``R_new``, not the ``R`` the sides have seen so far.  So the rule runs in
the other order: a probe-side delta joins the stored side's current
memory and folds nothing, and a delta arriving on the stored side while a
propagation is in flight waits in the engine's :class:`Propagation`
until it ends, then joins the graph and folds:

    Δ(L ⋈ R) = L_old ⋈ ΔR   followed by   ΔL ⋈ R_new

The queue is kept per ``(join, side)``: deltas that wait for the same
stored side are merged unconsolidated, in arrival order, and pair as one
batch with one read of the graph — ``ΔL₁ + ΔL₂`` against the same
``R_new`` is linear, so the net is exact.  Entries drain upstream joins
first (the order the joins were built in), so a chain's outputs reach a
downstream join's entry before it is popped, and each join reads the
graph once per drain; any other order would be as exact, since a probe
side is fed by an input node alone and all its deltas pair during the
dispatch.  Every state a downstream node sees between the two terms is a
real bag (never a negative count).  No callback runs while a propagation
is in flight — the engine delivers each commit's changes only after its
drain — so the graph cannot move under a waiting delta, and one
propagation never starts inside another.  At populate nothing is in
flight and the probe side is never replayed: its state is the graph.

Every delta that crosses an edge is a
:class:`~repro.rete.deltas.ColumnDelta` batch, whether it carries one
event's rows, a coalesced batch or a replayed state: counting-linear nodes
run their column kernels on it as it is, and transition-sensitive nodes
consolidate it at entry into a row :class:`~repro.rete.deltas.Delta`,
compute in rows and emit their answer transposed.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ...obs import tracing
from ..deltas import ColumnDelta, Delta

LEFT = 0
RIGHT = 1


class Propagation:
    """Whether an engine propagation is in flight, and what waits for its end.

    ``active`` is set from :meth:`begin` — one event dispatched, or one
    batch — until :meth:`end` returns.  While it is set a ⋈ with a probe
    side does not pair a delta arriving on its stored side: it queues it
    (:meth:`defer`).  The queue holds one entry per ``(join, side)``, a
    list of the deltas that arrived for it in arrival order.  :meth:`end`
    pops one entry at a time — the join built first, so downstream of no
    join still waiting — and hands its deltas to
    :meth:`~.join.JoinNode.fold_deferred` as one batch, merged
    unconsolidated (:meth:`ColumnDelta.concat`): the join reads the graph
    once for all of them.  What those folds emit to joins further down
    queues behind them, so every stored side receives its deltas in the
    order they were sent (see the module docstring).
    """

    __slots__ = ("active", "deferred", "_order", "_built")

    def __init__(self) -> None:
        self.active = False
        #: ``(join, side)`` → the deltas waiting for it, in arrival order
        self.deferred: dict[tuple, list] = {}
        #: a heap of ``(join rank, side, join)``, one per entry
        self._order: list[tuple] = []
        self._built = 0

    def rank(self) -> int:
        """The drain rank of a join built now.  A network is built bottom
        up, so a join ranks after every join upstream of it."""
        self._built += 1
        return self._built

    def begin(self) -> None:
        self.active = True

    def defer(self, node, delta: ColumnDelta, side: int) -> None:
        key = (node, side)
        waiting = self.deferred.get(key)
        if waiting is None:
            self.deferred[key] = [delta]
            heappush(self._order, (node.rank, side, node))
        else:
            waiting.append(delta)

    def end(self) -> None:
        deferred, order = self.deferred, self._order
        try:
            while order:
                _, side, node = heappop(order)
                deltas = deferred.pop((node, side))
                delta = deltas[0] if len(deltas) == 1 else ColumnDelta.concat(deltas)
                if tracing.ACTIVE is None:
                    node.fold_deferred(delta, side)
                else:
                    _fold_traced(tracing.ACTIVE, node, delta, side)
        finally:
            deferred.clear()
            order.clear()
            self.active = False


def _fold_traced(tracer, node, delta, side: int) -> None:
    """A deferred fold in its own span, named as ``Node.emit`` names the
    ``apply`` it stands in for."""
    label = type(node).__name__.removesuffix("Node")
    detail = f"side={'right' if side else 'left'} deferred"
    tracer.enter(f"apply {label}", detail, len(delta))
    try:
        node.fold_deferred(delta, side)
    finally:
        tracer.exit()


class Node:
    """A dataflow node with subscribers.

    Every node keeps cheap traffic counters that PROFILE output reads:
    ``emitted_deltas``/``emitted_rows`` on the output side, and
    ``applied_deltas``/``applied_rows`` on the input side — the latter
    make the batch-at-a-time win observable per node (rows per ``apply()``
    call).  They cost a few integer additions per propagated delta.
    """

    def __init__(self, schema) -> None:
        self.schema = schema
        self._subscribers: list[tuple["Node", int]] = []
        self.emitted_deltas = 0
        self.emitted_rows = 0
        self.applied_deltas = 0
        self.applied_rows = 0
        #: memory slots and index entries a *restricted* :meth:`state_delta`
        #: examined to find its answer (the answer's own rows are counted
        #: by the caller)
        self.replay_scanned = 0

    #: rows read from the graph in place of a memory (a ⋈ probe side)
    probe_rows = 0

    def subscribe(self, node: "Node", side: int = LEFT) -> None:
        self._subscribers.append((node, side))

    def unsubscribe(self, node: "Node", side: int = LEFT) -> None:
        """Remove one subscription edge (used when detaching shared views)."""
        self._subscribers.remove((node, side))

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def emit(self, delta: ColumnDelta) -> None:
        if not delta:
            return
        rows = len(delta)
        self.emitted_deltas += 1
        self.emitted_rows += rows
        if tracing.ACTIVE is not None:
            self._emit_traced(tracing.ACTIVE, delta, rows)
            return
        for node, side in self._subscribers:
            node.applied_deltas += 1
            node.applied_rows += rows
            node.apply(delta, side)

    def _emit_traced(self, tracer, delta, rows: int) -> None:
        """The ``emit`` loop with one span per subscriber ``apply``.

        Spans nest with the synchronous depth-first propagation, so the
        tracer's tree records this delta's whole downstream path; the
        counters are maintained identically to the untraced loop.
        """
        label = type(self).__name__.removesuffix("Node")
        tracer.enter(f"emit {label}", f"({', '.join(self.schema.names)})", rows)
        try:
            for node, side in self._subscribers:
                node.applied_deltas += 1
                node.applied_rows += rows
                target = type(node).__name__.removesuffix("Node")
                tracer.enter(
                    f"apply {target}", f"side={'right' if side else 'left'}", rows
                )
                try:
                    node.apply(delta, side)
                finally:
                    tracer.exit()
        finally:
            tracer.exit()

    def apply(self, delta: ColumnDelta, side: int) -> None:
        raise NotImplementedError

    def state_delta(self, restriction: tuple = ()) -> "Delta | ColumnDelta | None":
        """Current output bag as an insertion delta, or ``None``.

        Shared (cross-view) nodes use this for *targeted activation*: a
        late-registering view replays the node's present output onto only
        its own subscription edges.  Input nodes build it from the graph
        and answer in column form, a
        :class:`~repro.rete.deltas.ColumnDelta`.  Stateful interior nodes
        reconstruct the bag from their memories and answer in row form (a
        :class:`~repro.rete.deltas.Delta`), which :meth:`state_columns`
        transposes once.  Stateless nodes return ``None`` and the sharing
        layer derives their output by running :meth:`transform` over the
        upstream states instead.

        *restriction* — ``(output column, atom)`` pairs from a binding
        partition's equality conjuncts — is a prefilter the node *may*
        use: every row of the full state with ``row[column] == value``
        (Python ``==``) for all pairs must be returned at its exact
        multiplicity, anything else may be left out.  The partition's
        predicate implies the pairs and re-confirms every row it is
        handed, so a node that cannot restrict just ignores the argument
        and answers in full.
        """
        return None

    def state_columns(self, restriction: tuple = ()) -> "ColumnDelta | None":
        """:meth:`state_delta` as a batch, the form a replay hands on."""
        state = self.state_delta(restriction)
        if state is None:
            return None
        return ColumnDelta.from_delta(state, len(self.schema))

    def upstream_restriction(self, restriction: tuple, side: int) -> tuple:
        """*restriction* on this stateless node's output, re-expressed on
        the columns of its *side* input (pairs that do not map are
        dropped — a shorter restriction is only a coarser prefilter)."""
        return ()

    def transform(self, delta: ColumnDelta, side: int) -> ColumnDelta:
        """Pure output batch for *delta* on *side* — stateless nodes only.

        Must not touch memories or emit; ``apply`` of a stateless node is
        ``emit(transform(...))``, and the sharing layer reuses the same
        function to reconstruct state for targeted activation.
        """
        raise NotImplementedError(
            f"{type(self).__name__} keeps state; use state_delta()"
        )

    def memory_size(self) -> int:
        """Number of stored entries (for memory-footprint reporting)."""
        return 0

    def memory_cells(self) -> int:
        """Total stored tuple fields — sensitive to tuple *width*, which is
        what the schema-inference ablation (D1) changes."""
        return 0
