"""The generated code for FRA expressions: one function, two entry points.

``compile_expr`` / ``compile_predicate`` / ``compile_projection`` emit
Python source from the expression AST; the same generated body runs under a
row entry point and under a column loop.  Pinned here: the two agree value
for value (compared type-exactly) and error for error on hostile inputs,
the exact-type fast path gives Cypher's answers, operand order decides
which error surfaces, and no raw Python exception ever escapes.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    FUNCTIONS,
    EvalContext,
    compile_expr,
    compile_predicate,
    compile_projection,
)
from repro.algebra.schema import AttrKind, Attribute, Schema
from repro.cypher import ast, parse_expression
from repro.errors import EvaluationError
from repro.graph.values import ListValue, MapValue, PathValue

SCHEMA = Schema(
    [
        Attribute("x", AttrKind.VALUE),
        Attribute("y", AttrKind.VALUE),
        Attribute("v", AttrKind.VERTEX),
        Attribute("e", AttrKind.EDGE),
    ]
)
NAN = float("nan")

#: values chosen to break shortcuts: Python conflates 1/True/1.0 and
#: -0.0/0.0, NaN is unequal to itself, collections nest nulls
HOSTILE = [
    None, True, False, 1, 0, -1, 2, 1.0, -0.0, 0.0, NAN, 2.5, "", "a", "abc",
    ListValue(()), ListValue((1, None)), ListValue((ListValue((None,)), "a")),
    MapValue({"k": None}), MapValue({"k": 1}), PathValue((1, 2), (10,)),
]  # fmt: skip


def exact(value):
    """Type-exact identity of a cell: ``1``, ``True`` and ``1.0`` differ."""
    return (type(value).__name__, repr(value))


# -- expression generator ------------------------------------------------------

_leaves = st.one_of(
    st.sampled_from([ast.Variable(n) for n in SCHEMA.names]),
    st.sampled_from(
        [ast.Literal(v) for v in (None, True, False, 0, 1, -1, 1.0, -0.0, 2.5, "", "a")]
    ),
    st.sampled_from([ast.Parameter("a"), ast.Parameter("b")]),
)
_PUBLIC_FUNCTIONS = sorted(name for name in FUNCTIONS if not name.startswith("_"))


@st.composite
def _function_call(draw, children):
    name = draw(st.sampled_from(_PUBLIC_FUNCTIONS))
    low, high, _ = FUNCTIONS[name]
    count = draw(st.integers(low, min(high, 3)))
    return ast.FunctionCall(name, tuple(draw(children) for _ in range(count)))


@st.composite
def _comparison(draw, children):
    ops = draw(
        st.lists(st.sampled_from(["=", "<>", "<", ">", "<=", ">="]), min_size=1, max_size=2)
    )
    return ast.Comparison(tuple(draw(children) for _ in range(len(ops) + 1)), tuple(ops))


def _compound(children):
    pair = st.tuples(children, children)
    some = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        _comparison(children),
        st.builds(ast.BooleanOp, st.sampled_from(["AND", "OR", "XOR"]), some),
        st.builds(ast.Not, children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.Arithmetic, st.sampled_from("+-*/%^"), children, children),
        st.builds(ast.UnaryMinus, children),
        st.builds(ast.In, children, children),
        st.builds(
            ast.StringPredicate,
            st.sampled_from(["STARTS WITH", "ENDS WITH", "CONTAINS"]),
            children,
            children,
        ),
        st.builds(
            ast.CaseExpr,
            st.lists(pair, min_size=1, max_size=2).map(tuple),
            st.one_of(st.none(), children),
        ),
        _function_call(children),
        st.builds(ast.ListLiteral, st.lists(children, max_size=3).map(tuple)),
        st.builds(ast.MapLiteral, st.lists(st.tuples(st.just("k"), children), max_size=1).map(tuple)),
        st.builds(ast.Subscript, children, children),
        st.builds(ast.Slice, children, st.one_of(st.none(), children), st.one_of(st.none(), children)),
        st.builds(ast.Property, children, st.just("k")),
    )


expressions = st.recursive(_leaves, _compound, max_leaves=8)
values = st.sampled_from(HOSTILE)
batches = st.lists(st.tuples(values, values, values, values), max_size=5)
contexts = st.fixed_dictionaries({"a": values}, optional={"b": values}).map(EvalContext)


def _row_form(fn, rows, ctx):
    """Values of *fn* row by row, or ``None`` if the batch raises."""
    try:
        return [fn(row, ctx) for row in rows]
    except EvaluationError:
        return None


class TestRowAndColumnFormsAreOneFunction:
    @given(expr=expressions, rows=batches, ctx=contexts)
    @settings(max_examples=400, deadline=None)
    def test_forms_agree_and_only_evaluation_errors_escape(self, expr, rows, ctx):
        # any exception other than EvaluationError fails the test by escaping
        columns = [list(column) for column in zip(*rows)] or [[] for _ in SCHEMA.names]
        projection = compile_projection([expr], SCHEMA)
        by_row = _row_form(projection.row, rows, ctx)
        try:
            (by_column,) = projection.cols(columns, len(rows), ctx)
        except EvaluationError:
            by_column = None
        assert (by_row is None) == (by_column is None), "forms raise on different batches"
        if by_row is None:
            return
        assert [exact(v) for v in by_column] == [exact(v) for (v,) in by_row]
        # the plain value and the predicate are the same body again
        assert [exact(v) for v in _row_form(compile_expr(expr, SCHEMA), rows, ctx)] == [
            exact(v) for (v,) in by_row
        ]
        predicate = compile_predicate(expr, SCHEMA)
        assert [exact(v) for v in _row_form(predicate.row, rows, ctx)] == [
            exact(v) for (v,) in by_row
        ]
        assert predicate.cols(columns, len(rows), ctx) == [
            i for i, (v,) in enumerate(by_row) if v is True
        ]

    @given(expr=expressions)
    @settings(max_examples=200, deadline=None)
    def test_generated_source_compiles_without_warnings(self, expr):
        compile_projection([expr], SCHEMA)  # make sure generation itself is fine
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. `is` against a literal
            compile(compile_predicate(expr, SCHEMA).source, "<generated>", "exec")

    def test_an_empty_batch_evaluates_nothing(self):
        generated = compile_predicate(parse_expression("1 / 0 = $missing"), SCHEMA)
        assert generated.cols([[], [], [], []], 0, EvalContext({})) == []


def evaluate(text, x=None, y=None, v=None, e=None, params=None):
    """*text* through both forms on one row; they must agree."""
    ctx = EvalContext(params or {})
    generated = compile_projection([parse_expression(text)], SCHEMA)
    (value,) = generated.row((x, y, v, e), ctx)
    ((column_value,),) = generated.cols([[x], [y], [v], [e]], 1, ctx)
    assert exact(column_value) == exact(value)
    return value


COMPARE = {
    "=": lambda c: c == 0, "<>": lambda c: c != 0, "<": lambda c: c < 0,
    ">": lambda c: c > 0, "<=": lambda c: c <= 0, ">=": lambda c: c >= 0,
}  # fmt: skip


class TestFastPathTruthTables:
    """The exact-type int/str fast path must never change an answer."""

    @pytest.mark.parametrize("op", COMPARE)
    def test_every_operator(self, op):
        for text, values, (a, b) in (
            (f"x {op} y", dict(x=1, y=2), (1, 2)),  # int/int: the fast path
            (f"x {op} y", dict(x=2, y=2), (2, 2)),
            (f"x {op} y", dict(x="b", y="a"), ("b", "a")),  # str/str: the fast path
            (f"x {op} 2", dict(x=1), (1, 2)),  # a literal side
            (f"'b' {op} x", dict(x="a"), ("b", "a")),
            (f"v {op} e", dict(v=3, e=4), (3, 4)),  # id columns
            (f"x {op} $p", dict(x=1, params={"p": 2}), (1, 2)),
        ):
            assert evaluate(text, **values) is COMPARE[op]((a > b) - (a < b)), text

    @pytest.mark.parametrize("op", COMPARE)
    def test_int_against_float_compares_numerically(self, op):
        assert evaluate(f"x {op} y", x=1, y=1.0) is COMPARE[op](0)
        assert evaluate(f"x {op} 1.0", x=1) is COMPARE[op](0)
        assert evaluate(f"x {op} y", x=1, y=1.5) is COMPARE[op](-1)

    @pytest.mark.parametrize("op", COMPARE)
    def test_int_against_bool(self, op):
        # Python says 1 == True; Cypher says different types: `=` is false,
        # `<>` true, ordering unknown
        expected = {"=": False, "<>": True}.get(op)
        assert evaluate(f"x {op} y", x=1, y=True) is expected
        assert evaluate(f"x {op} true", x=1) is expected
        assert evaluate(f"x {op} y", x=True, y=1) is expected

    @pytest.mark.parametrize("op", COMPARE)
    def test_null_is_unknown_and_sigma_drops_it(self, op):
        assert evaluate(f"x {op} y", x=None, y=1) is None
        assert evaluate(f"x {op} null", x=1) is None
        assert evaluate(f"v {op} e", v=None, e=4) is None  # an id column out of ⟕
        predicate = compile_predicate(parse_expression(f"v {op} e"), SCHEMA)
        assert predicate.cols([[0], [0], [None], [4]], 1, EvalContext({})) == []

    @pytest.mark.parametrize("op", COMPARE)
    def test_string_against_number(self, op):
        expected = {"=": False, "<>": True}.get(op)  # ordering: incomparable
        assert evaluate(f"x {op} y", x="a", y=1) is expected
        assert evaluate(f"'a' {op} x", x=1) is expected
        assert evaluate(f"v {op} 'a'", v=1) is expected

    def test_nan_keeps_its_answers(self):
        assert evaluate("x = y", x=NAN, y=NAN) is False
        assert evaluate("x <> y", x=NAN, y=NAN) is True
        assert evaluate("x < y", x=NAN, y=1) is False

    def test_integer_arithmetic_fast_path(self):
        assert exact(evaluate("x + y", x=1, y=2)) == exact(3)
        assert exact(evaluate("x + y", x=1, y=2.0)) == exact(3.0)
        with pytest.raises(EvaluationError):  # Python's True * 2 == 2; bool is no number
            evaluate("x * 2", x=True)
        assert exact(evaluate("x - 1", x=-0.0)) == exact(-1.0)
        assert evaluate("x + y", x="a", y=1) == "a1"

    def test_memo_keeps_python_equal_literals_apart(self):
        # 1 == True == 1.0 and 0.0 == -0.0 for Python; not for the code memo
        assert [exact(evaluate(t)) for t in ("1", "true", "1.0", "0.0", "-0.0")] == [
            exact(1), exact(True), exact(1.0), exact(0.0), exact(-0.0)
        ]  # fmt: skip
        assert evaluate("x = 1", x=1) is True
        assert evaluate("x = true", x=1) is False
        assert evaluate("x = 1.0", x=1) is True


class TestErrorOrder:
    def test_an_operand_that_can_raise_is_never_skipped(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate("false AND (1 / 0 = 1)")
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate("true OR (1 / 0 = 1)")
        with pytest.raises(EvaluationError, match="must be a boolean"):
            evaluate("false AND x", x=5)  # the type check is part of x's meaning

    def test_an_operand_that_cannot_raise_may_be_skipped(self):
        source = compile_predicate(parse_expression("x = 1 AND y = 2"), SCHEMA).source
        assert "is not False:" in source  # y = 2 sits under a guard
        assert evaluate("false AND (x = 1)", x=1) is False
        assert evaluate("x = 1 AND y = 2", x=0, y=2) is False
        assert evaluate("x = 1 AND y = 2", x=None, y=3) is False
        assert evaluate("x = 1 OR y = 2", x=None, y=3) is None

    def test_operands_run_in_order(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate("(1 / 0 = 1) AND (x.k = 1)", x=5)
        with pytest.raises(EvaluationError, match="property access"):
            evaluate("(x.k = 1) AND (1 / 0 = 1)", x=5)

    def test_case_arms_and_slice_bounds_stay_lazy(self):
        assert evaluate("CASE WHEN x = 1 THEN 1 ELSE 1 / 0 END", x=1) == 1
        assert evaluate("x[1 / 0..]", x=None) is None

    def test_a_missing_parameter_is_an_evaluation_error(self):
        with pytest.raises(EvaluationError, match="missing query parameter"):
            evaluate("x = $p", x=1)


class TestNoRawExceptionEscapes:
    """Each of these raised a raw Python exception (or answered with a
    negative-index slice) before expressions were generated code."""

    def test_slice_bounds_are_type_checked(self):
        with pytest.raises(EvaluationError):
            evaluate("x['a'..]", x=ListValue((1, 2)))

    def test_to_integer_of_an_unrepresentable_float_is_null(self):
        assert evaluate("toInteger('1e999')") is None
        assert evaluate("toInteger(x)", x=math.inf) is None
        assert evaluate("toInteger(x)", x=NAN) is None
        assert evaluate("toInteger('12.7')") == 12

    def test_left_and_right_check_their_length(self):
        for text in ("left('abc', 'a')", "right('abc', 'a')", "left('abc', -1)", "right('abc', -1)"):
            with pytest.raises(EvaluationError):
                evaluate(text)
        assert evaluate("left('abc', 2)") == "ab"
        assert evaluate("right('abc', 5)") == "abc"

    def test_replace_checks_every_argument(self):
        with pytest.raises(EvaluationError):
            evaluate("replace('a', 1, 2)")

    def test_split_rejects_an_empty_delimiter(self):
        with pytest.raises(EvaluationError):
            evaluate("split('a', '')")

    def test_substring_rejects_negative_offsets(self):
        with pytest.raises(EvaluationError):
            evaluate("substring('abc', -1)")
        with pytest.raises(EvaluationError):
            evaluate("substring('abc', 0, -1)")
        assert evaluate("substring('abc', 1)") == "bc"

    def test_power_and_overflow(self):
        assert evaluate("0 ^ -1") is None  # not a real number: null, like sqrt(-1)
        assert evaluate("-8 ^ 0.5") is None
        with pytest.raises(EvaluationError, match="overflow"):
            evaluate("10.0 ^ 400")

    def test_string_concatenation_of_non_finite_floats(self):
        assert evaluate("'v=' + x", x=math.inf) == "v=inf"
