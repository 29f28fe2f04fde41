"""Non-incremental evaluation: pull-based interpreter, results, oracle."""

from .interpreter import GraphResolver, Interpreter, enumerate_trails
from .projections import edge_projection_value, labels_value, vertex_projection_value
from .results import ResultTable, canonical_order

__all__ = [
    "Interpreter",
    "GraphResolver",
    "enumerate_trails",
    "ResultTable",
    "canonical_order",
    "vertex_projection_value",
    "edge_projection_value",
    "labels_value",
]
