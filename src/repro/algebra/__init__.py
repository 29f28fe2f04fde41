"""Relational algebra stages (GRA / NRA / FRA), expressions, and schemas."""

from . import ops
from .expressions import (
    AGGREGATE_NAMES,
    AggregateSpec,
    EvalContext,
    compile_expr,
    contains_aggregate,
    is_aggregate_call,
)
from .fra import check_incremental_fragment, validate_fra
from .gra import validate_gra
from .nra import validate_nra
from .printer import format_compact, format_plan
from .schema import EMPTY_SCHEMA, AttrKind, Attribute, Schema

__all__ = [
    "ops",
    "Schema",
    "Attribute",
    "AttrKind",
    "EMPTY_SCHEMA",
    "compile_expr",
    "EvalContext",
    "AggregateSpec",
    "AGGREGATE_NAMES",
    "contains_aggregate",
    "is_aggregate_call",
    "validate_gra",
    "validate_nra",
    "validate_fra",
    "check_incremental_fragment",
    "format_plan",
    "format_compact",
]
