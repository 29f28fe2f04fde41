"""ORDER BY keys computed once per pass ≡ the multi-pass ``order_key`` sort.

``Interpreter._sorted`` evaluates each pass's key values once, sorts on the
values themselves when they are all exactly ``int`` or all exactly ``str``
(``order_key`` is order-isomorphic to the value there) and on ``order_key``
otherwise, and sorts row indices.  The reference below is the plain
multi-pass form — one ``sorted`` per key, ``order_key`` applied inside the
key function.  Over a hostile value pool the two must return the same row
objects in the same order, and raise on the same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PropertyGraph, QueryEngine
from repro.algebra import ops
from repro.eval import Interpreter
from repro.graph.values import ListValue, MapValue, PathValue, order_key

NAN = float("nan")
HOSTILE = (
    1, True, 1.0, 0, False, 0.0, -0.0, -3, 7, NAN, None, "a", "b", "",
    ListValue((1,)), ListValue((1.0,)), ListValue((True, "a")), ListValue(()),
    MapValue({"x": 1}), MapValue({"x": True}), MapValue({}),
    PathValue((1, 2), (5,)), PathValue((1, 2), (6,)), PathValue((0,), ()),
)  # fmt: skip
#: draws that keep a column inside one type, so the typed fast path runs
INTS = (-3, 0, 1, 7, 2**70)
STRS = ("", "a", "b", "ab")
#: ORDER BY items over columns a/b/c; ``-a`` and ``a + b`` raise on some values
KEYS = ("a", "b", "c", "-a", "a + b", "a.x")


def reference_sorted(interpreter, rows, sort, schema):
    """The multi-pass sort: one stable ``sorted`` per key, last key first."""
    compiled = [(interpreter._compile(e, schema), asc) for e, asc in sort.items]
    for fn, ascending in reversed(compiled):
        rows = sorted(
            rows,
            key=lambda r: order_key(fn(r, interpreter.ctx)),
            reverse=not ascending,
        )
    return rows


def sort_op(items: list[tuple[str, bool]]) -> ops.Sort:
    order = ", ".join(f"{key} {'ASC' if asc else 'DESC'}" for key, asc in items)
    plan = QueryEngine(PropertyGraph()).compile(
        f"MATCH (n:N) RETURN n.a AS a, n.b AS b, n.c AS c ORDER BY {order}"
    ).plan
    while not isinstance(plan, ops.Sort):
        plan = plan.children[0]
    return plan


def outcome(sort_fn, rows, sort):
    interpreter = Interpreter(PropertyGraph())
    schema = sort.children[0].schema
    try:
        return sort_fn(interpreter, rows, sort, schema), None
    except Exception as exc:  # noqa: BLE001 - compared below
        return None, type(exc)


def current_sorted(interpreter, rows, sort, schema):
    return interpreter._sorted(rows, sort, schema)


def row_lists(a, b, c):
    return st.lists(
        st.tuples(st.sampled_from(a), st.sampled_from(b), st.sampled_from(c)),
        max_size=12,
    )


items = st.lists(
    st.tuples(st.sampled_from(KEYS), st.booleans()), min_size=1, max_size=3
)


def assert_same(rows, sort_items):
    sort = sort_op(sort_items)
    got, got_error = outcome(current_sorted, list(rows), sort)
    want, want_error = outcome(reference_sorted, list(rows), sort)
    assert got_error is want_error
    if want_error is None:
        assert len(got) == len(want)
        assert all(g is w for g, w in zip(got, want))


class TestTypedKeysEqualTheMultiPassSort:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=row_lists(HOSTILE, HOSTILE, HOSTILE),
        sort_items=items,
    )
    def test_hostile_pool(self, rows, sort_items):
        assert_same(rows, sort_items)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=row_lists(INTS, STRS, HOSTILE),
        sort_items=items,
    )
    def test_single_type_columns(self, rows, sort_items):
        assert_same(rows, sort_items)

    def test_ties_keep_their_input_order(self):
        rows = [(1, "x", i) for i in range(5)] + [(0, "y", 9)]
        for asc in (True, False):
            assert_same(rows, [("a", asc)])
        sort = sort_op([("a", False)])
        got, _ = outcome(current_sorted, rows, sort)
        assert got == rows  # DESC keeps the tied 1s in input order, 0 last

    def test_bool_is_not_taken_for_int(self):
        # True == 1, but Cypher orders booleans before numbers
        rows = [(1, "", 0), (True, "", 0), (0, "", 0), (False, "", 0)]
        sort = sort_op([("a", True)])
        got, _ = outcome(current_sorted, rows, sort)
        assert [type(row[0]) for row in got] == [bool, bool, int, int]
        assert_same(rows, [("a", True)])

    def test_raising_key_raises_the_same_error(self):
        rows = [(1, 1, 0), (MapValue({"x": 1}), 1, 0)]
        sort = sort_op([("-a", True)])
        _, got_error = outcome(current_sorted, rows, sort)
        _, want_error = outcome(reference_sorted, rows, sort)
        assert got_error is want_error is not None
