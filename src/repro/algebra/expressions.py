"""Scalar expression compilation and evaluation over flat rows.

FRA expressions are Cypher AST expression trees whose :class:`Variable`
nodes name attributes of the operator's input :class:`~.schema.Schema`
(including pushed-down dotted attributes like ``p.lang`` — the paper's
``{lang → pL}`` columns).  After the compiler's pushdown pass, evaluating an
expression needs **no graph access**: everything an expression can observe
is already a column of the row.  This is exactly what makes the same
expression code usable both by the one-shot interpreter and by the
incremental Rete nodes.

Expressions are compiled to *generated Python source* (see "expression
compiler" below): every variable is a tuple position, every operator is
resolved at build time, and the one body gets a row entry point
``fn(row, ctx)`` and a column entry point ``f(columns, n, ctx)``.  All
predicate results follow openCypher's ternary (three-valued) logic;
``WHERE`` keeps a row only when the predicate is exactly ``True``.

Aggregate functions live in their own registry (:data:`AGGREGATES`) with
*incremental* insert/remove state machines so the Rete aggregation node can
maintain them under deletions (Gupta–Mumick style counting).
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from functools import lru_cache
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from ..cypher import ast
from ..errors import CompilerError, EvaluationError
from ..graph.values import (
    ListValue,
    MapValue,
    PathValue,
    cypher_compare,
    cypher_eq,
    freeze_value,
    order_key,
)
from .schema import AttrKind, Schema


@dataclass(slots=True)
class EvalContext:
    """Per-evaluation environment: query parameters."""

    parameters: Mapping[str, Any] = field(default_factory=dict)


CompiledExpr = Callable[[tuple, EvalContext], Any]


class EntityResolver:
    """Graph access for evaluating *nested-stage* (GRA/NRA) expressions.

    FRA expressions never need one — the flattening step (paper §4 step 3)
    turns every entity dereference into a column.  The one-shot interpreter
    provides a resolver so the *unflattened* stages can also be evaluated,
    which the stage-equivalence tests use to check that each lowering step
    preserves semantics.
    """

    def vertex_property(self, vertex_id: int, key: str) -> Any:
        raise NotImplementedError

    def edge_property(self, edge_id: int, key: str) -> Any:
        raise NotImplementedError

    def vertex_labels(self, vertex_id: int) -> Any:
        raise NotImplementedError

    def edge_type(self, edge_id: int) -> Any:
        raise NotImplementedError

    def vertex_properties(self, vertex_id: int) -> Any:
        raise NotImplementedError

    def edge_properties(self, edge_id: int) -> Any:
        raise NotImplementedError

#: Names treated as aggregate functions (extracted by the compiler before
#: expression compilation; seeing one here is a compiler bug).
AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max", "collect"})


def is_aggregate_call(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.CountStar) or (
        isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_NAMES
    )


def contains_aggregate(expr: ast.Expr) -> bool:
    return any(is_aggregate_call(node) for node in ast.walk(expr))


# ---------------------------------------------------------------------------
# three-valued logic helpers
# ---------------------------------------------------------------------------


def ternary_and(values: list[Any]) -> Any:
    if any(v is False for v in values):
        return False
    if any(v is None for v in values):
        return None
    return True

def ternary_or(values: list[Any]) -> Any:
    if any(v is True for v in values):
        return True
    if any(v is None for v in values):
        return None
    return False

def ternary_xor(values: list[Any]) -> Any:
    if any(v is None for v in values):
        return None
    result = False
    for v in values:
        result ^= bool(v)
    return result

def ternary_not(value: Any) -> Any:
    if value is None:
        return None
    return not value


def _as_bool(value: Any, what: str) -> Any:
    if value is None or isinstance(value, bool):
        return value
    raise EvaluationError(f"{what} must be a boolean, got {value!r}")


# ---------------------------------------------------------------------------
# scalar operators and functions (pure; no graph access)
# ---------------------------------------------------------------------------


def _function(name: str, fn: Callable[..., Any], *checks: Callable[[Any], bool]):
    """A scalar operator or function over an argument list: null when an
    argument is null, an ``EvaluationError`` when one fails its check
    (*checks* align with the leading arguments), else ``fn(*args)``."""

    def call(args: Sequence[Any]) -> Any:
        if any(a is None for a in args):
            return None
        for accepts, arg in zip(checks, args):
            if not accepts(arg):
                raise EvaluationError(f"{name} cannot take {arg!r}")
        return fn(*args)

    return call


def _numeric(name: str, fn: Callable[..., Any], arity: int = 1):
    """:func:`_function` over numbers.  NaN and arguments outside *fn*'s
    domain give null (NaN breaks hashing/equality in counting multisets);
    overflow is an error, never a raw ``OverflowError``."""

    def apply(*args: Any) -> Any:
        try:
            return _nan_guard(fn(*args))
        except ValueError:
            return None
        except OverflowError:
            raise EvaluationError(f"numeric overflow in {name}") from None

    return _function(name, apply, *[_is_number] * arity)


def _nan_guard(value: Any) -> Any:
    return None if isinstance(value, float) and value != value else value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    """A non-negative integer: a length or a start offset."""
    return _is_integer(value) and value >= 0


def _instance_of(*types: type) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, types)


_is_string, _is_list, _is_path = _instance_of(str), _instance_of(ListValue), _instance_of(PathValue)


def _add(a: Any, b: Any) -> Any:
    if _is_number(a) and _is_number(b):
        return a + b
    if isinstance(a, str) or isinstance(b, str):
        return value_to_string(a) + value_to_string(b)
    if isinstance(a, ListValue) or isinstance(b, ListValue):
        left = a if isinstance(a, ListValue) else (a,)
        return ListValue(left + (b if isinstance(b, ListValue) else (b,)))
    raise EvaluationError(f"cannot add {a!r} and {b!r}")


def _trunc_div(a: Any, b: Any) -> Any:
    if b == 0:
        raise EvaluationError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _java_mod(a: Any, b: Any) -> Any:
    if b == 0:
        raise EvaluationError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a - _trunc_div(a, b) * b
    return math.fmod(a, b)


#: operator symbol → (name in generated code, implementation over ``[a, b]``)
ARITHMETIC: dict[str, tuple[str, Callable[[Sequence[Any]], Any]]] = {
    "+": ("arith_add", _numeric("operator +", _add, arity=0)),  # _add checks its own operands
    "-": ("arith_sub", _numeric("operator -", operator.sub, arity=2)),
    "*": ("arith_mul", _numeric("operator *", operator.mul, arity=2)),
    "/": ("arith_div", _numeric("operator /", _trunc_div, arity=2)),
    "%": ("arith_mod", _numeric("operator %", _java_mod, arity=2)),
    "^": ("arith_pow", _numeric("operator ^", math.pow, arity=2)),
}


def arith_binary(op: str, a: Any, b: Any) -> Any:
    if op not in ARITHMETIC:
        raise CompilerError(f"unknown arithmetic operator {op!r}")
    return ARITHMETIC[op][1]((a, b))


def _ne(a: Any, b: Any) -> Any:
    equal = cypher_eq(a, b)
    return None if equal is None else not equal


def _ordering(holds: Callable[[int, int], bool]):
    def compare(a: Any, b: Any) -> Any:
        c = cypher_compare(a, b)
        return None if c is None else holds(c, 0)

    return compare


#: Cypher comparison → (Python operator of the exact-type fast path, name in
#: generated code of the three-valued fallback, the fallback)
COMPARISONS: dict[str, tuple[str, str, Callable[[Any, Any], Any]]] = {
    "=": ("==", "cypher_eq", cypher_eq),
    "<>": ("!=", "cypher_ne", _ne),
    "<": ("<", "cypher_lt", _ordering(operator.lt)),
    ">": (">", "cypher_gt", _ordering(operator.gt)),
    "<=": ("<=", "cypher_le", _ordering(operator.le)),
    ">=": (">=", "cypher_ge", _ordering(operator.ge)),
}


def cypher_in(item: Any, container: Any) -> Any:
    if container is None:
        return None
    if isinstance(container, PathValue):
        elements: tuple = container.vertices
    elif isinstance(container, ListValue):
        elements = tuple(container)
    else:
        raise EvaluationError(f"IN requires a list, got {container!r}")
    unknown = False
    for element in elements:
        r = cypher_eq(item, element)
        if r is True:
            return True
        if r is None:
            unknown = True
    # ``x IN []`` is false even for null x; otherwise null x is unknown.
    if item is None and elements:
        return None
    return None if unknown else False


def value_to_string(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return f"{value:.1f}"
    return str(value)


def _to_integer(x: Any) -> Any:
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x.strip())
        except ValueError:
            try:
                x = float(x.strip())
            except ValueError:
                return None
    if isinstance(x, float) and math.isfinite(x):
        return int(x)
    return None  # not a number, or one no integer represents (NaN, ±inf)


def _to_float(x: Any) -> Any:
    if isinstance(x, str):
        try:
            return _nan_guard(float(x.strip()))
        except ValueError:
            return None
    return float(x) if _is_number(x) else None


def _to_boolean(x: Any) -> Any:
    if isinstance(x, str):
        return {"true": True, "false": False}.get(x.strip().lower())
    return x if isinstance(x, bool) else None


def _range(start: int, end: int, step: int = 1) -> ListValue:
    if step == 0:
        raise EvaluationError("range() step must not be zero")
    return ListValue(range(start, end + (1 if step > 0 else -1), step))


def _substring(s: str, start: int, length: int | None = None) -> str:
    return s[start:][:length]


def _split(s: str, delimiter: str) -> ListValue:
    if not delimiter:
        raise EvaluationError("split() delimiter must not be empty")
    return ListValue(s.split(delimiter))


def _path(*components: Any) -> PathValue:
    """Build a :class:`PathValue` from alternating components.

    Components are vertex ids, edge ids, and sub-paths (from transitive
    segments).  A sub-path following a vertex must start at that vertex
    (the duplicate is dropped); a sub-path in edge position supplies both
    its edges and its interior vertices.  (A null component — an OPTIONAL
    MATCH miss — never gets here: the path is null.)
    """
    vertices: list[int] = []
    edges: list[int] = []
    last_was_vertex = False
    for component in components:
        if isinstance(component, PathValue):
            if last_was_vertex:
                if vertices[-1] != component.start:
                    raise EvaluationError("discontinuous path segments")
                vertices.extend(component.vertices[1:])
            else:
                vertices.extend(component.vertices)
            edges.extend(component.edges)
            last_was_vertex = True
        elif last_was_vertex:
            edges.append(component)
            last_was_vertex = False
        else:
            vertices.append(component)
            last_was_vertex = True
    return PathValue(vertices, edges)


_relationships = _function("relationships()", lambda p: ListValue(p.edges), _is_path)

#: name → (min_arity, max_arity, implementation over the argument list)
FUNCTIONS: dict[str, tuple[int, int, Callable[[Sequence[Any]], Any]]] = {
    "coalesce": (1, 99, lambda args: next((a for a in args if a is not None), None)),
    "exists": (1, 1, lambda args: args[0] is not None),
    "tointeger": (1, 1, _function("toInteger()", _to_integer)),
    "tofloat": (1, 1, _function("toFloat()", _to_float)),
    "tostring": (1, 1, _function("toString()", value_to_string)),
    "toboolean": (1, 1, _function("toBoolean()", _to_boolean)),
    "size": (1, 1, _function("size()", len, _instance_of(str, ListValue))),
    "length": (1, 1, _function("length()", len, _instance_of(PathValue, ListValue, str))),
    "nodes": (1, 1, _function("nodes()", lambda p: ListValue(p.vertices), _is_path)),
    "relationships": (1, 1, _relationships),
    "rels": (1, 1, _relationships),
    "head": (1, 1, _function("head()", lambda xs: xs[0] if xs else None, _is_list)),
    "last": (1, 1, _function("last()", lambda xs: xs[-1] if xs else None, _is_list)),
    "tail": (1, 1, _function("tail()", lambda xs: ListValue(xs[1:]), _is_list)),
    "reverse": (1, 1, _function("reverse()", lambda x: type(x)(x[::-1]), _instance_of(str, ListValue))),
    "keys": (1, 1, _function("keys()", lambda m: ListValue(m.keys()), _instance_of(MapValue))),
    "range": (2, 3, _function("range()", _range, _is_integer, _is_integer, _is_integer)),
    "abs": (1, 1, _numeric("abs()", abs)),
    "sign": (1, 1, _numeric("sign()", lambda x: (x > 0) - (x < 0))),
    "ceil": (1, 1, _numeric("ceil()", math.ceil)),
    "floor": (1, 1, _numeric("floor()", math.floor)),
    "round": (1, 1, _numeric("round()", lambda x: float(round(x)))),
    "sqrt": (1, 1, _numeric("sqrt()", math.sqrt)),
    "exp": (1, 1, _numeric("exp()", math.exp)),
    "log": (1, 1, _numeric("log()", math.log)),
    "log10": (1, 1, _numeric("log10()", math.log10)),
    "sin": (1, 1, _numeric("sin()", math.sin)),
    "cos": (1, 1, _numeric("cos()", math.cos)),
    "tan": (1, 1, _numeric("tan()", math.tan)),
    "tolower": (1, 1, _function("toLower()", str.lower, _is_string)),
    "toupper": (1, 1, _function("toUpper()", str.upper, _is_string)),
    "trim": (1, 1, _function("trim()", str.strip, _is_string)),
    "ltrim": (1, 1, _function("lTrim()", str.lstrip, _is_string)),
    "rtrim": (1, 1, _function("rTrim()", str.rstrip, _is_string)),
    "replace": (3, 3, _function("replace()", str.replace, _is_string, _is_string, _is_string)),
    "substring": (2, 3, _function("substring()", _substring, _is_string, _is_count, _is_count)),
    "split": (2, 2, _function("split()", _split, _is_string, _is_string)),
    "left": (2, 2, _function("left()", lambda s, n: s[:n], _is_string, _is_count)),
    "right": (2, 2, _function("right()", lambda s, n: s[max(len(s) - n, 0) :], _is_string, _is_count)),
    "_path": (1, 99, _function("_path()", _path)),
    "_has_labels": (2, 2, _function("_has_labels()", lambda have, need: all(l in have for l in need))),
    # true when two id lists share no element (edge-uniqueness checks)
    "_disjoint": (2, 2, _function("_disjoint()", lambda a, b: not (set(a) & set(b)))),
}


# ---------------------------------------------------------------------------
# expression compiler: AST → Python source → compile(), once per shape
# ---------------------------------------------------------------------------


def _param(parameters: Mapping[str, Any], name: str) -> Any:
    if name not in parameters:
        raise EvaluationError(f"missing query parameter ${name}")
    return freeze_value(parameters[name])


def _property(value: Any, key: str) -> Any:
    if value is None:
        return None
    if isinstance(value, MapValue):
        return value.get(key)
    raise EvaluationError(
        f"property access .{key} on non-map value {value!r}; "
        "entity property access must be pushed down by the compiler"
    )


def _subscript(container: Any, index: Any) -> Any:
    if container is None or index is None:
        return None
    if isinstance(container, ListValue):
        if not _is_integer(index):
            raise EvaluationError(f"list index must be an integer, got {index!r}")
        if -len(container) <= index < len(container):
            return container[index]
        return None
    if isinstance(container, MapValue):
        if not isinstance(index, str):
            raise EvaluationError(f"map key must be a string, got {index!r}")
        return container.get(index)
    raise EvaluationError(f"cannot subscript {container!r}")


_sliceable = _function("a slice", lambda xs: None, _is_list)
_slice = _function("a slice", lambda xs, i, j: ListValue(xs[i:j]), _is_list, _is_integer, _is_integer)
_negate = _function("unary minus", operator.neg, _is_number)

#: the globals of every generated function: this module's names so far, the
#: operator fallbacks and the function library (``fn_<name>``)
_GLOBALS: dict[str, Any] = {
    **globals(),
    **{name: fallback for _, name, fallback in COMPARISONS.values()},
    **dict(ARITHMETIC.values()),
    **{f"fn_{name}": impl for name, (_, _, impl) in FUNCTIONS.items()},
}


def _is_ternary(expr: ast.Expr) -> bool:
    """*expr* can only be true, false or null: a connective need not check."""
    if isinstance(expr, ast.Literal):
        return expr.value is None or isinstance(expr.value, bool)
    ternary = (ast.Comparison, ast.IsNull, ast.Not, ast.BooleanOp, ast.StringPredicate, ast.In)
    return isinstance(expr, ternary)


def _skippable(expr: ast.Expr) -> bool:
    """AND/OR may skip *expr* once their answer is settled: it is ternary
    and statically unable to raise.  Every other operand runs in operand
    order whatever came before — which ``EvaluationError`` surfaces is part
    of an expression's meaning."""
    leaves = (ast.Variable, ast.Literal, ast.Parameter)  # parameters are pre-fetched
    if isinstance(expr, (ast.Comparison, ast.IsNull)):
        operands = expr.operands if isinstance(expr, ast.Comparison) else (expr.operand,)
        return all(isinstance(o, leaves) or _skippable(o) for o in operands)
    if isinstance(expr, ast.Not):
        return _skippable(expr.operand)
    if isinstance(expr, ast.BooleanOp):
        return all(_skippable(o) for o in expr.operands)
    return _is_ternary(expr) and isinstance(expr, ast.Literal)


class _Emitter:
    """Emits the statements that evaluate expressions over one flat row.

    ``value(expr)`` appends the statements *expr* needs to ``lines`` and
    returns an *atom* — a local name or a literal — holding its value.
    Columns (``c<position>``) and parameters (``p<n>``) are locals the
    enclosing function binds before the body runs, so one body serves the
    row entry point and the column loop.
    """

    def __init__(self, layout: dict[str, tuple[int, AttrKind]], with_resolver: bool):
        self.layout = layout  # column name → (position, kind)
        self.with_resolver = with_resolver
        self.lines: list[str] = []
        self.depth = 0
        self.temps = 0
        self.columns: dict[int, str] = {}  # input position → local, first-use order
        self.params: dict[str, str] = {}  # parameter name → local

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.line(header)
        self.depth += 1
        yield
        self.depth -= 1

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def assign(self, code: str) -> str:
        name = self.temp()
        self.line(f"{name} = {code}")
        return name

    def value(self, expr: ast.Expr) -> str:
        emit = getattr(self, f"_{type(expr).__name__}", None)
        if emit is None:
            raise CompilerError(f"cannot compile expression {type(expr).__name__}")
        return emit(expr)

    def name(self, expr: ast.Expr) -> str:
        """:meth:`value`, but never a number or string literal — for atoms
        the generated code tests with ``is`` (a ``SyntaxWarning`` on those)."""
        atom = self.value(expr)
        return atom if atom.isidentifier() else self.assign(atom)

    def boolean(self, expr: ast.Expr, what: str) -> str:
        """An operand of a connective: true, false, null — or an error."""
        atom = self.name(expr)
        if not _is_ternary(expr):
            self.line(f"_as_bool({atom}, {what!r})")
        return atom

    def static_type(self, expr: ast.Expr) -> Any:
        """What is known of an operand before any row is seen: ``int``/``str``
        (a literal of exactly that type), ``"id"`` (a vertex or edge column:
        an int, or null out of ⟕), ``object`` (never an int or str), ``None``
        (unknown).  It only picks which fast-path test to emit; the emitted
        test is what makes the fast path sound."""
        if isinstance(expr, ast.Literal):
            return type(expr.value) if type(expr.value) in (int, str) else object
        if isinstance(expr, ast.Variable):
            kind = self.layout[expr.name][1]
            if kind is not AttrKind.VALUE:
                return object if kind is AttrKind.PATH else "id"
        return None

    def entity_kind(self, expr: ast.Expr) -> str | None:
        """'vertex' / 'edge' when a resolver is to dereference variable *expr*."""
        if self.with_resolver and isinstance(expr, ast.Variable):
            kind = self.layout[expr.name][1]
            if kind is AttrKind.VERTEX or kind is AttrKind.EDGE:
                return kind.value
        return None

    def compare(self, op: str, left: tuple[str, Any], right: tuple[str, Any]) -> str:
        """``a op b``: Python's operator when both are exactly int or exactly
        str, the three-valued fallback for everything else (null, bool, float,
        mixed, list, map — ``1 = 1.0``, ``1 = true``, NaN keep their answers)."""
        python_op, fallback, _ = COMPARISONS[op]
        (a, type_a), (b, type_b) = left, right
        slow = f"{fallback}({a}, {b})"
        exact = (int, str)
        if type_a is object or type_b is object or (type_a in exact and type_b in exact):
            return self.assign(slow)
        if type_a in exact:
            test = f"type({b}) is {type_a.__name__}"
        elif type_b in exact:
            test = f"type({a}) is {type_b.__name__}"
        elif type_a == "id" or type_b == "id":
            test = f"type({a}) is int and type({b}) is int"
        else:
            kind = self.assign(f"type({a})")
            test = f"{kind} is type({b}) and ({kind} is int or {kind} is str)"
        return self.assign(f"{a} {python_op} {b} if {test} else {slow}")

    def _Literal(self, expr: ast.Literal) -> str:
        value = expr.value
        if not (value is None or isinstance(value, (bool, int, float, str))):
            raise CompilerError(f"unsupported literal {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            return "math.nan" if value != value else ("math.inf" if value > 0 else "-math.inf")
        return repr(value)

    def _Parameter(self, expr: ast.Parameter) -> str:
        return self.params.setdefault(expr.name, f"p{len(self.params)}")

    def _Variable(self, expr: ast.Variable) -> str:
        position = self.layout[expr.name][0]
        return self.columns.setdefault(position, f"c{position}")

    def _Comparison(self, expr: ast.Comparison) -> str:
        operands = [(self.value(o), self.static_type(o)) for o in expr.operands]
        result = self.compare(expr.ops[0], operands[0], operands[1])
        for i, op in enumerate(expr.ops[1:], 1):  # a chain is the AND of its links
            with self.block(f"if {result} is not False:"):
                link = self.compare(op, operands[i], operands[i + 1])
                self.line(f"if {link} is not True: {result} = {link}")
        return result

    def _BooleanOp(self, expr: ast.BooleanOp) -> str:
        what = f"operand of {expr.op}"
        if expr.op == "XOR":
            atoms = [self.boolean(o, what) for o in expr.operands]
            unknown = " or ".join(f"{a} is None" for a in atoms)
            return self.assign(f"None if {unknown} else {' ^ '.join(atoms)}")
        # AND: false settles it, true is neutral; OR the other way round.  An
        # operand that is not neutral is null or the settling value: it is
        # the answer so far, unless the answer is settled already.
        settled, neutral = ("False", "True") if expr.op == "AND" else ("True", "False")
        result = self.boolean(expr.operands[0], what)
        if not result.startswith("t"):  # a column, parameter or literal: keep it intact
            result = self.assign(result)
        for operand in expr.operands[1:]:
            if _skippable(operand):
                with self.block(f"if {result} is not {settled}:"):
                    atom = self.boolean(operand, what)
                    self.line(f"if {atom} is not {neutral}: {result} = {atom}")
            else:
                atom = self.boolean(operand, what)
                self.line(
                    f"if {atom} is not {neutral} and {result} is not {settled}: "
                    f"{result} = {atom}"
                )
        return result

    def _Not(self, expr: ast.Not) -> str:
        atom = self.boolean(expr.operand, "argument of NOT")
        return self.assign(f"None if {atom} is None else not {atom}")

    def _IsNull(self, expr: ast.IsNull) -> str:
        atom = self.name(expr.operand)
        return self.assign(f"{atom} is {'not ' if expr.negated else ''}None")

    def _In(self, expr: ast.In) -> str:
        return self.assign(f"cypher_in({self.value(expr.item)}, {self.value(expr.container)})")

    def _StringPredicate(self, expr: ast.StringPredicate) -> str:
        s, p = self.name(expr.subject), self.value(expr.pattern)  # `0.startswith` is no syntax
        test = {"STARTS WITH": f"{s}.startswith({p})", "ENDS WITH": f"{s}.endswith({p})"}
        return self.assign(
            f"{test.get(expr.kind, f'{p} in {s}')} "
            f"if isinstance({s}, str) and isinstance({p}, str) else None"
        )

    def _CaseExpr(self, expr: ast.CaseExpr) -> str:
        result, depth = self.temp(), self.depth
        for condition, value in expr.whens:  # an arm runs only if reached
            with self.block(f"if {self.name(condition)} is True:"):
                self.line(f"{result} = {self.value(value)}")
            self.line("else:")
            self.depth += 1
        default = self.value(expr.default) if expr.default is not None else "None"
        self.line(f"{result} = {default}")
        self.depth = depth
        return result

    def _Arithmetic(self, expr: ast.Arithmetic) -> str:
        if expr.op not in ARITHMETIC:
            raise CompilerError(f"unknown arithmetic operator {expr.op!r}")
        a, b = self.value(expr.left), self.value(expr.right)
        slow = f"{ARITHMETIC[expr.op][0]}(({a}, {b}))"
        types = (self.static_type(expr.left), self.static_type(expr.right))
        if expr.op not in "+-*" or str in types or object in types or types == (int, int):
            return self.assign(slow)
        tests = [f"type({x}) is int" for x, known in zip((a, b), types) if known is not int]
        return self.assign(f"{a} {expr.op} {b} if {' and '.join(tests)} else {slow}")

    def _UnaryMinus(self, expr: ast.UnaryMinus) -> str:
        return self.assign(f"_negate(({self.value(expr.operand)},))")

    def _ListLiteral(self, expr: ast.ListLiteral) -> str:
        return self.assign(f"ListValue([{', '.join(self.value(i) for i in expr.items)}])")

    def _MapLiteral(self, expr: ast.MapLiteral) -> str:
        entries = ", ".join(f"{key!r}: {self.value(v)}" for key, v in expr.items)
        return self.assign(f"MapValue({{{entries}}})")

    def _Subscript(self, expr: ast.Subscript) -> str:
        return self.assign(f"_subscript({self.value(expr.subject)}, {self.value(expr.index)})")

    def _Slice(self, expr: ast.Slice) -> str:
        subject = self.name(expr.subject)
        result = self.assign("None")
        with self.block(f"if {subject} is not None:"):  # bounds only run for a list
            self.line(f"_sliceable(({subject},))")
            low = self.value(expr.low) if expr.low is not None else "0"
            high = self.value(expr.high) if expr.high is not None else f"len({subject})"
            self.line(f"{result} = _slice(({subject}, {low}, {high}))")
        return result

    def _entity_call(self, subject: ast.Expr, lookup: str, *extra: str) -> str:
        """``resolver.<lookup>(entity, ...)`` — null for a null entity."""
        entity = self.name(subject)
        args = ", ".join((entity, *extra))
        return self.assign(f"None if {entity} is None else resolver.{lookup}({args})")

    def _Property(self, expr: ast.Property) -> str:
        kind = self.entity_kind(expr.subject)
        if kind is not None:
            return self._entity_call(expr.subject, f"{kind}_property", repr(expr.key))
        return self.assign(f"_property({self.value(expr.subject)}, {expr.key!r})")

    def _HasLabel(self, expr: ast.HasLabel) -> str:
        if self.entity_kind(expr.subject) == "vertex":
            labels = self._entity_call(expr.subject, "vertex_labels")
            return self.assign(f"fn__has_labels([{labels}, {expr.labels!r}])")
        raise CompilerError(
            "label predicates must be rewritten to _has_labels by the compiler"
        )

    def _FunctionCall(self, expr: ast.FunctionCall) -> str:
        name, args = expr.name, expr.args
        if name in AGGREGATE_NAMES:
            raise CompilerError(f"aggregate {name}() must be extracted before compilation")
        if name in ("labels", "type", "properties") and len(args) == 1:
            kind = self.entity_kind(args[0])
            if kind is not None:
                lookup = {"labels": "vertex_labels", "type": "edge_type"}.get(
                    name, f"{kind}_properties"
                )
                return self._entity_call(args[0], lookup)
        if name not in FUNCTIONS:
            raise CompilerError(f"unknown function {name}()")
        low, high, _ = FUNCTIONS[name]
        if not (low <= len(args) <= high):
            takes = low if low == high else f"{low}..{high}"
            raise CompilerError(f"{name}() takes {takes} arguments, got {len(args)}")
        return self.assign(f"fn_{name}([{', '.join(self.value(a) for a in args)}])")


def _indent(lines: Sequence[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


def _generate(mode: str, exprs: tuple[ast.Expr, ...], layout: dict, with_resolver: bool) -> str:
    """The source of ``make(resolver) -> (row, cols)`` for *exprs* over columns
    *layout* (name → (position, kind)).  *mode* is what the two answer:
    ``"value"`` — the one expression's value, no ``cols``; ``"predicate"`` —
    its value, the positions where it is exactly true; ``"projection"`` —
    the item tuple, the output columns (a bare-column item *is* the input's
    column list: no per-row work)."""
    emitter = _Emitter(layout, with_resolver)
    projection = mode == "projection"
    items = list(enumerate(exprs))
    bare = {i: layout[e.name][0] for i, e in items if projection and isinstance(e, ast.Variable)}
    atoms = {i: emitter.value(e) if projection else emitter.name(e) for i, e in items if i not in bare}
    prelude = [f"{p} = _param(ctx.parameters, {name!r})" for name, p in emitter.params.items()]
    row = prelude + [f"{c} = row[{i}]" for i, c in emitter.columns.items()] + emitter.lines
    values = [atoms.get(i) or f"row[{bare[i]}]" for i, _ in items]
    result = f"({', '.join(values)}{',' * (len(values) == 1)})" if projection else values[0]
    row.append(f"return {result}")
    lines = ["def make(resolver):", "    def row(row, ctx):", *_indent(row, 2)]
    if mode != "value":
        if projection:
            head = [f"o{i} = []" for i in atoms]
            tail = [f"o{i}.append({atom})" for i, atom in atoms.items()]
            outputs = (f"o{i}" if i in atoms else f"columns[{bare[i]}]" for i, _ in items)
            result = f"[{', '.join(outputs)}]"
        else:
            head, result = ["keep = []"], "keep"
            tail = [f"if {atoms[0]} is True:", "    keep.append(i)"]
        cols = head
        if atoms:  # only the columns mentioned are zipped; parameters are fetched once
            targets = ", ".join(["i", *emitter.columns.values()]) + "," * (not emitter.columns)
            sources = ", ".join(["range(n)", *(f"columns[{i}]" for i in emitter.columns)])
            loop = f"for ({targets}) in zip({sources}):"
            cols = head + ["if n:", *_indent(prelude + [loop], 1), *_indent(emitter.lines + tail, 2)]
        lines += ["    def cols(columns, n, ctx):", *_indent(cols + [f"return {result}"], 2)]
    return "\n".join(lines + [f"    return row, {'None' if mode == 'value' else 'cols'}", ""])


class Generated(NamedTuple):
    """The functions generated for one value, predicate or projection.

    ``row(row, ctx)`` evaluates one flat tuple; ``cols(columns, n, ctx)`` is
    the same body under a loop over *n* positions held as parallel column
    lists (``None`` for a plain value).  ``source`` is their text, and
    ``make(resolver)`` binds it to a graph for nested-stage evaluation —
    ``row``/``cols`` are then ``None`` here: they are the caller's.
    """

    source: str
    make: Callable[[Any], tuple]
    row: Callable[[tuple, EvalContext], Any] | None
    cols: Callable[[list, int, EvalContext], list] | None


@lru_cache(maxsize=4096)
def _variables(exprs: tuple[ast.Expr, ...]) -> tuple[str, ...]:
    """The column names *exprs* mention, in first-mention order."""
    return tuple(
        dict.fromkeys(n.name for e in exprs for n in ast.walk(e) if isinstance(n, ast.Variable))
    )


@lru_cache(maxsize=4096)
def _compiled(mode: str, exprs: tuple[ast.Expr, ...], layout: tuple, with_resolver: bool) -> Generated:
    """Generated code, memoised process-wide like :mod:`re`'s pattern cache.

    ``compile()`` costs about a hundred microseconds a conjunct, and a
    binding's private π or a repeated ``evaluate()`` would pay it per
    registration or read.  The key is the expression ASTs, the ``(position,
    kind)`` of each column they mention and resolver-or-not; no graph,
    resolver or context is reachable from an entry, only code.  Bounded:
    the least recently used of 4 096 shapes is dropped and recompiles.
    """
    source = _generate(mode, exprs, dict(zip(_variables(exprs), layout)), with_resolver)
    scope: dict[str, Any] = {}
    try:
        exec(compile(source, "<generated expression>", "exec"), _GLOBALS, scope)
    except SyntaxError as exc:  # e.g. a CASE with a hundred arms: too many indents
        raise CompilerError(f"expression too deeply nested to compile: {exc}") from None
    make = scope["make"]
    return Generated(source, make, *((None, None) if with_resolver else make(None)))


def _generated(mode: str, exprs: tuple[ast.Expr, ...], schema: Schema, with_resolver: bool) -> Generated:
    attributes = schema.attributes  # index_of raises CompilerError for an unknown name
    layout = tuple([(i, attributes[i].kind) for i in map(schema.index_of, _variables(exprs))])
    return _compiled(mode, exprs, layout, with_resolver)


def cache_stats() -> dict[str, int]:
    """Process-wide counters of the generated-code memo."""
    info = _compiled.cache_info()
    return {"compiled": info.misses, "hits": info.hits}


def compile_expr(
    expr: ast.Expr, schema: Schema, resolver: EntityResolver | None = None
) -> CompiledExpr:
    """Compile *expr* into a function evaluated as ``fn(row, ctx)``.

    Variables must name attributes of *schema*; unknown names raise
    :class:`CompilerError` at compile time, never at run time.  With a
    *resolver*, entity dereferences (``p.lang`` on a vertex attribute,
    ``labels()``/``type()``/``properties()``, label predicates) are
    evaluated against the graph — used only for nested-stage (GRA/NRA)
    evaluation; flat (FRA) expressions never need it.
    """
    generated = _generated("value", (expr,), schema, resolver is not None)
    return generated.row if resolver is None else generated.make(resolver)[0]


def compile_predicate(expr: ast.Expr, schema: Schema) -> Generated:
    """σ's predicate: ``row`` gives its value, ``cols`` the positions of a
    batch where it is exactly true."""
    return _generated("predicate", (expr,), schema, False)


def compile_projection(exprs: Sequence[ast.Expr], schema: Schema) -> Generated:
    """π's items: ``row`` gives the output tuple, ``cols`` the output columns."""
    return _generated("projection", tuple(exprs), schema, False)


# ---------------------------------------------------------------------------
# aggregates (incremental state machines)
# ---------------------------------------------------------------------------


class Aggregator:
    """Incremental aggregate over a bag of values.

    ``insert``/``remove`` take the value and a positive multiplicity;
    ``result`` is pure.  ``count(*)`` aggregators receive ``_ROW`` markers.
    """

    def insert(self, value: Any, multiplicity: int) -> None:
        raise NotImplementedError

    def remove(self, value: Any, multiplicity: int) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountAggregator(Aggregator):
    """count(expr) — counts non-null values; count(*) counts rows."""

    def __init__(self) -> None:
        self.total = 0

    def insert(self, value: Any, multiplicity: int) -> None:
        if value is not None:
            self.total += multiplicity

    def remove(self, value: Any, multiplicity: int) -> None:
        if value is not None:
            self.total -= multiplicity

    def result(self) -> Any:
        return self.total


class SumAggregator(Aggregator):
    def __init__(self) -> None:
        self.total: int | float = 0
        self.count = 0

    def insert(self, value: Any, multiplicity: int) -> None:
        if value is None:
            return
        if not _is_number(value):
            raise EvaluationError(f"sum() requires numbers, got {value!r}")
        self.total += value * multiplicity
        self.count += multiplicity

    def remove(self, value: Any, multiplicity: int) -> None:
        if value is None:
            return
        self.total -= value * multiplicity
        self.count -= multiplicity
        if self.count == 0:
            self.total = 0  # reset float drift on empty

    def result(self) -> Any:
        return self.total


class AvgAggregator(SumAggregator):
    def result(self) -> Any:
        if self.count == 0:
            return None
        return self.total / self.count


class _BagAggregator(Aggregator):
    """Base for aggregates that need the full value bag (min/max/collect)."""

    def __init__(self) -> None:
        self.bag: dict[Any, int] = {}

    def insert(self, value: Any, multiplicity: int) -> None:
        if value is None:
            return
        self.bag[value] = self.bag.get(value, 0) + multiplicity

    def remove(self, value: Any, multiplicity: int) -> None:
        if value is None:
            return
        remaining = self.bag.get(value, 0) - multiplicity
        if remaining > 0:
            self.bag[value] = remaining
        elif remaining == 0:
            self.bag.pop(value, None)
        else:
            raise EvaluationError(f"aggregate multiset underflow for {value!r}")


class MinAggregator(_BagAggregator):
    def result(self) -> Any:
        if not self.bag:
            return None
        return min(self.bag, key=order_key)


class MaxAggregator(_BagAggregator):
    def result(self) -> Any:
        if not self.bag:
            return None
        return max(self.bag, key=order_key)


class CollectAggregator(_BagAggregator):
    """collect(expr) → list.

    The paper's model is bag-based (ORD dropped except for paths), so the
    collected list has no inherent order; we emit a canonical order (sorted
    by the global value ordering) for reproducibility.
    """

    def result(self) -> Any:
        out: list[Any] = []
        for value in sorted(self.bag, key=order_key):
            out.extend([value] * self.bag[value])
        return ListValue(out)


class DistinctAggregator(Aggregator):
    """Wraps another aggregator, feeding each distinct value once."""

    def __init__(self, inner: Aggregator) -> None:
        self.inner = inner
        self.seen: dict[Any, int] = {}

    def insert(self, value: Any, multiplicity: int) -> None:
        if value is None:
            return
        before = self.seen.get(value, 0)
        self.seen[value] = before + multiplicity
        if before == 0:
            self.inner.insert(value, 1)

    def remove(self, value: Any, multiplicity: int) -> None:
        if value is None:
            return
        remaining = self.seen.get(value, 0) - multiplicity
        if remaining < 0:
            raise EvaluationError(f"distinct aggregate underflow for {value!r}")
        if remaining == 0:
            self.seen.pop(value, None)
            self.inner.remove(value, 1)
        else:
            self.seen[value] = remaining

    def result(self) -> Any:
        return self.inner.result()


AGGREGATES: dict[str, Callable[[], Aggregator]] = {
    "count": CountAggregator,
    "sum": SumAggregator,
    "avg": AvgAggregator,
    "min": MinAggregator,
    "max": MaxAggregator,
    "collect": CollectAggregator,
}


@dataclass(frozen=True, slots=True)
class AggregateSpec:
    """A single aggregate column of an Aggregate operator.

    ``argument`` is ``None`` for ``count(*)`` (every row counts).
    """

    function: str
    argument: ast.Expr | None
    distinct: bool
    output: str

    def make_aggregator(self) -> Aggregator:
        factory = AGGREGATES.get(self.function)
        if factory is None:
            raise CompilerError(f"unknown aggregate {self.function}()")
        aggregator = factory()
        if self.distinct:
            aggregator = DistinctAggregator(aggregator)
        return aggregator
