"""Updating queries: CREATE / DELETE / SET / REMOVE / MERGE.

The paper's engine consumes a *change stream*; this package produces one.
Updating openCypher queries are executed clause-by-clause over a binding
table (the standard Cypher execution model), mutating the
:class:`~repro.graph.graph.PropertyGraph` through its normal API — so every
write surfaces as elementary change events that registered incremental
views consume, turning the engine into an *active graph database* (cf. the
Graphflow comparison in the paper's related work).

Each query executes inside a compensating transaction: a failure midway
rolls back all of its writes, including their effects on live views.
"""

from .executor import ExecutionResult, PreparedUpdate, UpdateExecutor
from .summary import UpdateSummary

__all__ = [
    "PreparedUpdate",
    "UpdateExecutor",
    "ExecutionResult",
    "UpdateSummary",
]
