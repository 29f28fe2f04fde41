"""Rete node implementations."""

from .aggregate import AggregateNode
from .base import LEFT, RIGHT, Node
from .input import EdgeInputNode, UnitNode, VertexInputNode
from .join import AntiJoinNode, JoinNode, LeftOuterJoinNode, UnionNode
from .production import ProductionNode
from .transitive import EDGES, TransitiveClosureNode
from .unary import DedupNode, ProjectionNode, SelectionNode, UnwindNode

__all__ = [
    "Node",
    "LEFT",
    "RIGHT",
    "EDGES",
    "UnitNode",
    "VertexInputNode",
    "EdgeInputNode",
    "SelectionNode",
    "ProjectionNode",
    "DedupNode",
    "UnwindNode",
    "JoinNode",
    "AntiJoinNode",
    "LeftOuterJoinNode",
    "UnionNode",
    "AggregateNode",
    "TransitiveClosureNode",
    "ProductionNode",
]
