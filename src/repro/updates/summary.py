"""Counters reported by updating queries (Neo4j-style result summary)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class UpdateSummary:
    """What an updating query changed.

    Counter semantics match Neo4j's result summary: ``properties_set``
    counts property *assignments* (including removals via ``SET x.p =
    NULL`` and ``REMOVE``), ``labels_added``/``labels_removed`` count
    label-vertex pairs.
    """

    nodes_created: int = 0
    nodes_deleted: int = 0
    relationships_created: int = 0
    relationships_deleted: int = 0
    properties_set: int = 0
    labels_added: int = 0
    labels_removed: int = 0

    @property
    def contains_updates(self) -> bool:
        return any(
            (
                self.nodes_created,
                self.nodes_deleted,
                self.relationships_created,
                self.relationships_deleted,
                self.properties_set,
                self.labels_added,
                self.labels_removed,
            )
        )

    def __str__(self) -> str:
        parts = [
            f"{value} {name.replace('_', ' ')}"
            for name, value in (
                ("nodes_created", self.nodes_created),
                ("nodes_deleted", self.nodes_deleted),
                ("relationships_created", self.relationships_created),
                ("relationships_deleted", self.relationships_deleted),
                ("properties_set", self.properties_set),
                ("labels_added", self.labels_added),
                ("labels_removed", self.labels_removed),
            )
            if value
        ]
        return ", ".join(parts) if parts else "no changes"
