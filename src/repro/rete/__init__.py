"""Rete-style incremental view maintenance engine (paper §4, step 4)."""

from .batch import BatchAccumulator, CoalescedBatch
from .deltas import Delta
from .engine import BatchScope, IncrementalEngine, View
from .network import ReteNetwork
from .router import EdgeInterest, EventRouter, VertexInterest

__all__ = [
    "BatchAccumulator",
    "BatchScope",
    "CoalescedBatch",
    "Delta",
    "EdgeInterest",
    "EventRouter",
    "IncrementalEngine",
    "VertexInterest",
    "View",
    "ReteNetwork",
]
