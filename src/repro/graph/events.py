"""Change events emitted by :class:`~repro.graph.graph.PropertyGraph`.

The incremental engine consumes these events as its *delta stream*: every
elementary mutation of the store produces exactly one event, emitted
synchronously after the store state has been updated.  Events carry enough
*before* state (old labels, old property values) that a consumer can retract
previously derived tuples without keeping its own shadow copy of the graph.

Setting a property to ``None`` is identical to removing it (Cypher
semantics), so property changes are a single event type with ``old_value``
and ``new_value`` where ``None`` means *absent*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .values import same_value


@dataclass(frozen=True, slots=True)
class GraphEvent:
    """Base class for all change events."""


@dataclass(frozen=True, slots=True)
class VertexAdded(GraphEvent):
    vertex_id: int
    labels: frozenset[str]
    properties: Mapping[str, Any]


@dataclass(frozen=True, slots=True)
class VertexRemoved(GraphEvent):
    """Emitted after a vertex is removed; carries its final state."""

    vertex_id: int
    labels: frozenset[str]
    properties: Mapping[str, Any]


@dataclass(frozen=True, slots=True)
class EdgeAdded(GraphEvent):
    edge_id: int
    source: int
    target: int
    edge_type: str
    properties: Mapping[str, Any]


@dataclass(frozen=True, slots=True)
class EdgeRemoved(GraphEvent):
    """Emitted after an edge is removed; carries its final state."""

    edge_id: int
    source: int
    target: int
    edge_type: str
    properties: Mapping[str, Any]


@dataclass(frozen=True, slots=True)
class VertexLabelAdded(GraphEvent):
    vertex_id: int
    label: str


@dataclass(frozen=True, slots=True)
class VertexLabelRemoved(GraphEvent):
    vertex_id: int
    label: str


@dataclass(frozen=True, slots=True)
class VertexPropertySet(GraphEvent):
    """A vertex property changed; ``None`` means the key is/was absent."""

    vertex_id: int
    key: str
    old_value: Any
    new_value: Any


@dataclass(frozen=True, slots=True)
class EdgePropertySet(GraphEvent):
    """An edge property changed; ``None`` means the key is/was absent."""

    edge_id: int
    key: str
    old_value: Any
    new_value: Any


def changed_property_keys(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> set[str]:
    """Keys whose value differs, type-exactly, between two property maps.

    ``None`` and *absent* compare equal (the Cypher convention this event
    model uses throughout).  Batch consolidation groups changed vertices
    by these keys, and both the event router and the input nodes read
    those groups — so a node the router skips is one with nothing to
    translate.
    """
    changed = set()
    for key in set(before) | set(after):
        old, new = before.get(key), after.get(key)
        if old is not new and (old != new or not same_value(old, new)):
            changed.add(key)
    return changed


def unwind_property_set(
    properties: Mapping[str, Any],
    event: "VertexPropertySet | EdgePropertySet",
) -> dict[str, Any]:
    """The property map as it stood *before* a property-set event.

    Inverts one :class:`VertexPropertySet`/:class:`EdgePropertySet` against
    the post-event map, honouring the ``None``-means-absent convention.
    """
    before = dict(properties)
    if event.old_value is None:
        before.pop(event.key, None)
    else:
        before[event.key] = event.old_value
    return before
