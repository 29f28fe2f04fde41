"""Materialisation of pushed-down base-relation columns from the graph.

Shared by the pull-based interpreter (scans) and the Rete input nodes
(initial population and delta construction): both must build *exactly* the
same column values for a given entity, or differential tests would fail on
representation rather than semantics.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..algebra.ops import PropertyProjection
from ..graph.graph import PropertyGraph
from ..graph.values import ListValue, MapValue


def labels_value(labels: Iterable[str]) -> ListValue:
    """Canonical (sorted) representation of a label set."""
    return ListValue(sorted(labels))


def vertex_projection_value(
    graph: PropertyGraph,
    vertex_id: int,
    projection: PropertyProjection,
    *,
    labels: Iterable[str] | None = None,
    properties: dict[str, Any] | None = None,
) -> Any:
    """Value of one pushed-down column for a vertex.

    ``labels``/``properties`` override the live graph state — the input
    nodes use this to build *pre-event* tuples from event payloads.
    """
    if projection.kind == "property":
        if properties is not None:
            return properties.get(projection.key)
        return graph.vertex_property(vertex_id, projection.key)  # type: ignore[arg-type]
    if projection.kind == "labels":
        return labels_value(
            labels if labels is not None else graph.labels_of(vertex_id)
        )
    if projection.kind == "properties":
        return MapValue(
            properties
            if properties is not None
            else graph.vertex_properties(vertex_id)
        )
    raise ValueError(f"projection kind {projection.kind!r} not valid for vertices")


#: the image of an entity a batch holds no before image for: live state
_LIVE_VERTEX = (None, None)
_LIVE_EDGE = (None, None, None, None)


def vertex_projection_column(
    graph: PropertyGraph,
    vertex_ids: list[int],
    projection: PropertyProjection,
    before: dict[int, tuple] | None = None,
) -> list:
    """:func:`vertex_projection_value` over the live graph for every id in
    *vertex_ids*, in order — one comprehension per column.

    *before* maps ids to ``(labels, properties)`` images (a coalesced
    batch's window-start state) read instead of the live graph."""
    if before:
        return [
            vertex_projection_value(graph, v, projection, labels=labels, properties=props)
            for v in vertex_ids
            for labels, props in (before.get(v, _LIVE_VERTEX),)
        ]
    kind = projection.kind
    if kind == "property":
        return graph.vertex_property_column(vertex_ids, projection.key)
    if kind == "labels":
        labels = graph.labels_view
        return [labels_value(labels(v)) for v in vertex_ids]
    if kind == "properties":
        properties = graph.vertex_properties
        return [MapValue(properties(v)) for v in vertex_ids]
    raise ValueError(f"projection kind {kind!r} not valid for vertices")


def edge_projection_column(
    graph: PropertyGraph,
    edge_ids: list[int],
    projection: PropertyProjection,
    before: dict[int, tuple] | None = None,
) -> list:
    """:func:`edge_projection_value` over the live graph for every id in
    *edge_ids*, in order; *before* maps ids to ``(source, target, type,
    properties)`` images read instead of the live graph."""
    if before:
        return [
            edge_projection_value(graph, e, projection, edge_type=t, properties=props)
            for e in edge_ids
            for _, _, t, props in (before.get(e, _LIVE_EDGE),)
        ]
    kind = projection.kind
    if kind == "property":
        get, key = graph.edge_property, projection.key
        return [get(e, key) for e in edge_ids]
    if kind == "type":
        type_of = graph.type_of
        return [type_of(e) for e in edge_ids]
    if kind == "properties":
        properties = graph.edge_properties
        return [MapValue(properties(e)) for e in edge_ids]
    raise ValueError(f"projection kind {kind!r} not valid for edges")


def edge_projection_value(
    graph: PropertyGraph,
    edge_id: int,
    projection: PropertyProjection,
    *,
    edge_type: str | None = None,
    properties: dict[str, Any] | None = None,
) -> Any:
    """Value of one pushed-down column for an edge."""
    if projection.kind == "property":
        if properties is not None:
            return properties.get(projection.key)
        return graph.edge_property(edge_id, projection.key)  # type: ignore[arg-type]
    if projection.kind == "type":
        return edge_type if edge_type is not None else graph.type_of(edge_id)
    if projection.kind == "properties":
        return MapValue(
            properties if properties is not None else graph.edge_properties(edge_id)
        )
    raise ValueError(f"projection kind {projection.kind!r} not valid for edges")
