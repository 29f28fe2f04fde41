"""One engine held to recomputation: the differential harness of the
routing, sharing, binding and memory suites.

An :class:`OracleMirror` registers views on one :class:`QueryEngine` and,
on every :meth:`~OracleMirror.assert_consistent`, requires each view to
equal ``evaluate(use_views=False)`` under its bindings, compared
type-exactly (``(type name, repr)`` per cell), and each view's
``on_change`` log, replayed onto the contents the view was registered
with, to reproduce the view.  ``plain=False`` compares ``==`` bags
instead, for value pools where ``1``/``True``/``1.0`` are in play and a
stored type may legitimately survive an ``==``-equal write.
"""

from __future__ import annotations

import itertools

from repro import QueryEngine

from .test_populate import exact

#: every combination of the engine's options, for flag-matrix tests
ENGINE_OPTIONS = [
    dict(zip(("batch_transactions", "collect_metrics", "trace_batches"), values))
    for values in itertools.product((False, True), repeat=3)
]
ENGINE_OPTION_IDS = [
    "+".join(name for name, on in options.items() if on) or "default"
    for options in ENGINE_OPTIONS
]


def fold(bag: dict, items) -> None:
    """Add signed ``(row, mult)`` items into *bag*, dropping zero counts."""
    for row, mult in items:
        count = bag.get(row, 0) + mult
        if count:
            bag[row] = count
        else:
            del bag[row]


class OracleMirror:
    """One engine whose views are held to recomputation and to their own
    ``on_change`` streams."""

    def __init__(self, graph, plain: bool = True, **options):
        self.graph = graph
        self.engine = QueryEngine(graph, **options)
        self.plain = plain
        self.registered: list[tuple[str, dict | None]] = []
        self.views: list = []
        self.replays: list[dict] = []

    def register(self, query: str, parameters=None):
        view = self.engine.register(query, parameters=parameters)
        replay = dict(view.multiset())
        view.on_change(lambda delta: fold(replay, delta.items()))
        self.registered.append((query, parameters))
        self.views.append(view)
        self.replays.append(replay)
        return view

    def detach(self, index: int) -> None:
        self.views.pop(index).detach()
        self.registered.pop(index)
        self.replays.pop(index)

    def same(self, left, right) -> bool:
        if self.plain:
            return exact(left) == exact(right)
        return dict(left) == dict(right)

    def assert_consistent(self) -> None:
        for (query, parameters), view, replay in zip(
            self.registered, self.views, self.replays
        ):
            held = view.multiset()
            recomputed = self.engine.evaluate(query, parameters, use_views=False)
            assert self.same(held, recomputed.multiset()), (query, parameters)
            assert self.same(replay, held), (query, parameters)
