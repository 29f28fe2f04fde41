"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class.  The hierarchy mirrors the major subsystems:
graph store, Cypher front end, algebra/compiler, and the incremental engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Base class for property graph store errors."""


class EntityNotFoundError(GraphError):
    """A vertex or edge id does not exist in the graph."""

    def __init__(self, kind: str, entity_id: int) -> None:
        super().__init__(f"{kind} with id {entity_id} does not exist")
        self.kind = kind
        self.entity_id = entity_id


class DanglingEdgeError(GraphError):
    """An operation would leave an edge without a valid endpoint."""


class InvalidValueError(GraphError):
    """A property value is outside the supported value domain."""


class TransactionError(GraphError):
    """Misuse of the transaction/batching API."""


class CypherError(ReproError):
    """Base class for Cypher front-end errors."""


class CypherSyntaxError(CypherError):
    """The query text could not be tokenised or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending position so
    callers can point at the error in the original query text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class CypherSemanticError(CypherError):
    """The query parsed but is not well formed (e.g. unbound variable)."""


class UnsupportedFeatureError(CypherError):
    """The query uses openCypher syntax outside the implemented fragment."""


class CompilerError(ReproError):
    """Internal error while lowering a query through GRA/NRA/FRA."""


class EvaluationError(ReproError):
    """Runtime error while evaluating an expression or a plan."""


class UnsupportedForIncrementalError(ReproError):
    """The query is valid but outside the incrementally maintainable fragment.

    The paper's maintainable fragment excludes ordering constructs
    (``ORDER BY``, ``SKIP``, ``LIMIT``, top-k); registering such a query as an
    incremental view raises this error, while one-shot evaluation still
    supports it.
    """
