"""Unit tests for the property value domain (freeze/thaw, 3VL comparisons,
paths, global ordering)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.graph.values import (
    ListValue,
    MapValue,
    PathValue,
    cypher_compare,
    cypher_eq,
    freeze_value,
    order_key,
    thaw_value,
)


class TestFreeze:
    def test_atoms_pass_through(self):
        for atom in (None, True, 1, 1.5, "x"):
            assert freeze_value(atom) == atom

    def test_list_becomes_list_value(self):
        frozen = freeze_value([1, 2, 3])
        assert isinstance(frozen, ListValue)
        assert tuple(frozen) == (1, 2, 3)

    def test_nested_list(self):
        frozen = freeze_value([1, [2, 3]])
        assert isinstance(frozen[1], ListValue)

    def test_dict_becomes_map_value(self):
        frozen = freeze_value({"a": 1, "b": [2]})
        assert isinstance(frozen, MapValue)
        assert frozen["a"] == 1
        assert isinstance(frozen["b"], ListValue)

    def test_frozen_values_are_hashable(self):
        {freeze_value([1, {"k": [True, None]}]): 1}

    def test_unsupported_type_raises(self):
        with pytest.raises(InvalidValueError):
            freeze_value(object())

    def test_non_string_map_key_raises(self):
        with pytest.raises(InvalidValueError):
            freeze_value({1: "x"})

    def test_thaw_round_trip(self):
        original = {"a": [1, 2, {"b": "c"}], "d": None}
        assert thaw_value(freeze_value(original)) == original


class TestMapValue:
    def test_immutability(self):
        m = MapValue({"a": 1})
        with pytest.raises(AttributeError):
            m.x = 1  # type: ignore[attr-defined]

    def test_lookup_and_get(self):
        m = MapValue({"a": 1})
        assert m["a"] == 1
        assert m.get("missing") is None
        with pytest.raises(KeyError):
            m["missing"]

    def test_equality_is_order_insensitive(self):
        assert MapValue({"a": 1, "b": 2}) == MapValue({"b": 2, "a": 1})
        assert hash(MapValue({"a": 1, "b": 2})) == hash(MapValue({"b": 2, "a": 1}))

    def test_contains_iter_len(self):
        m = MapValue({"a": 1, "b": 2})
        assert "a" in m and "c" not in m
        assert sorted(m) == ["a", "b"]
        assert len(m) == 2

    def test_to_dict(self):
        assert MapValue({"a": 1}).to_dict() == {"a": 1}


class TestPathValue:
    def test_structure(self):
        p = PathValue((1, 2, 3), (10, 11))
        assert p.start == 1
        assert p.end == 3
        assert len(p) == 2

    def test_zero_length_path(self):
        p = PathValue((7,), ())
        assert p.start == p.end == 7
        assert len(p) == 0

    def test_alternation_enforced(self):
        with pytest.raises(InvalidValueError):
            PathValue((1, 2), (10, 11))

    def test_repr_lists_vertices_only(self):
        # the paper's display convention: "edges are omitted from paths"
        assert repr(PathValue((1, 2, 3), (10, 11))) == "[1, 2, 3]"

    def test_contains(self):
        p = PathValue((1, 2), (10,))
        assert p.contains_edge(10) and not p.contains_edge(99)
        assert p.contains_vertex(2) and not p.contains_vertex(99)

    def test_concat(self):
        p = PathValue((1,), ()).concat(10, 2).concat(11, 3)
        assert p.vertices == (1, 2, 3)
        assert p.edges == (10, 11)

    def test_equality_and_hash(self):
        a = PathValue((1, 2), (10,))
        b = PathValue((1, 2), (10,))
        assert a == b and hash(a) == hash(b)
        assert a != PathValue((1, 2), (11,))

    def test_immutability(self):
        p = PathValue((1,), ())
        with pytest.raises(AttributeError):
            p.vertices = (2,)  # type: ignore[misc]


class TestCypherEq:
    def test_null_propagates(self):
        assert cypher_eq(None, 1) is None
        assert cypher_eq(None, None) is None

    def test_numbers_cross_type(self):
        assert cypher_eq(1, 1.0) is True
        assert cypher_eq(1, 2) is False

    def test_bool_is_not_number(self):
        assert cypher_eq(True, 1) is False

    def test_strings(self):
        assert cypher_eq("a", "a") is True
        assert cypher_eq("a", "b") is False

    def test_cross_type_is_false(self):
        assert cypher_eq("1", 1) is False

    def test_lists_elementwise(self):
        assert cypher_eq(ListValue((1, 2)), ListValue((1, 2))) is True
        assert cypher_eq(ListValue((1, 2)), ListValue((1, 3))) is False
        assert cypher_eq(ListValue((1,)), ListValue((1, 2))) is False

    def test_list_with_null_element_unknown(self):
        assert cypher_eq(ListValue((1, None)), ListValue((1, 2))) is None

    def test_list_with_null_but_definite_mismatch(self):
        assert cypher_eq(ListValue((1, None)), ListValue((2, 2))) is False

    def test_maps(self):
        assert cypher_eq(MapValue({"a": 1}), MapValue({"a": 1})) is True
        assert cypher_eq(MapValue({"a": 1}), MapValue({"a": 2})) is False
        assert cypher_eq(MapValue({"a": 1}), MapValue({"b": 1})) is False
        assert cypher_eq(MapValue({"a": None}), MapValue({"a": 1})) is None

    def test_paths_compare_like_vertex_lists(self):
        assert cypher_eq(PathValue((1, 2), (9,)), ListValue((1, 2))) is True


class TestCypherCompare:
    def test_null(self):
        assert cypher_compare(None, 1) is None

    def test_numbers(self):
        assert cypher_compare(1, 2) == -1
        assert cypher_compare(2.5, 2.5) == 0
        assert cypher_compare(3, 2.5) == 1

    def test_strings(self):
        assert cypher_compare("a", "b") == -1

    def test_booleans(self):
        assert cypher_compare(False, True) == -1

    def test_incomparable_types(self):
        assert cypher_compare(1, "a") is None
        assert cypher_compare(True, 1) is None


class TestOrderKey:
    def test_total_order_over_mixed_values(self):
        values = [
            None,
            3,
            1.5,
            "b",
            "a",
            True,
            False,
            ListValue((1,)),
            MapValue({"k": 1}),
            PathValue((1,), ()),
        ]
        ordered = sorted(values, key=order_key)
        # maps < lists < paths < strings < bools < numbers < null
        assert isinstance(ordered[0], MapValue)
        assert ordered[-1] is None

    def test_parallel_edge_paths_get_distinct_keys(self):
        """Paths over parallel edges share their vertices; the edge ids
        order them, so a bag of them lists one way however it was built."""
        first, second = PathValue((1, 2), (7,)), PathValue((1, 2), (3,))
        longer = PathValue((1, 2, 4), (3, 5))
        assert order_key(first) != order_key(second)
        for values in ([first, longer, second], [second, first, longer]):
            assert sorted(values, key=order_key) == [second, first, longer]

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-5, 5),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(max_size=3),
            ),
            max_size=6,
        )
    )
    def test_order_key_is_deterministic_total_order(self, values):
        keys = [order_key(v) for v in values]
        sorted(keys)  # must not raise: keys are mutually comparable


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestValueRoundTrips:
    """Immutable slotted values rebuild through their constructors:
    pickle and ``copy.deepcopy`` must both round-trip them losslessly."""

    def test_list_value(self):
        value = ListValue((1, "two", None, ListValue((3,))))
        restored = roundtrip(value)
        assert restored == value
        assert isinstance(restored, ListValue)
        assert hash(restored) == hash(value)

    def test_map_value(self):
        value = MapValue({"a": 1, "nested": MapValue({"b": ListValue((2,))})})
        restored = roundtrip(value)
        assert restored == value
        assert isinstance(restored, MapValue)
        assert hash(restored) == hash(value)
        assert dict(restored.items()) == dict(value.items())

    def test_path_value(self):
        value = PathValue((1, 2, 3), (10, 11))
        restored = roundtrip(value)
        assert restored == value
        assert isinstance(restored, PathValue)
        assert hash(restored) == hash(value)
        assert restored.vertices == (1, 2, 3) and restored.edges == (10, 11)

    def test_zero_length_path(self):
        assert roundtrip(PathValue((7,), ())) == PathValue((7,), ())

    def test_deepcopy_nested_map_and_path(self):
        path = PathValue((1, 2), (9,))
        value = MapValue({"path": path, "nested": MapValue({"xs": ListValue((1, 2))})})
        copied = copy.deepcopy((value, path))
        assert copied == (value, path)
        assert isinstance(copied[0], MapValue)
        assert isinstance(copied[0]["nested"], MapValue)
        assert isinstance(copied[1], PathValue)
        assert hash(copied[0]) == hash(value) and hash(copied[1]) == hash(path)
