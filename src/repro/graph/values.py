"""Property value domain for the property graph data model.

The paper's data model (§2) defines ``D`` as the union of atomic domains and
allows nested *collection* values (lists and maps) as first-class property
values.  The engine internally requires every value to be hashable so that
tuples can live in counting multisets, so mutable Python containers are
*frozen* on the way in:

* ``list``  → :class:`ListValue` (an immutable sequence)
* ``dict``  → :class:`MapValue` (an immutable string-keyed mapping)

Paths are represented by :class:`PathValue` — an alternating, ordered
sequence of vertex and edge ids.  Per the paper's core design decision,
paths are *atomic*: they are created and deleted as units and are never
patched in place.

The module also implements openCypher's three-valued comparison semantics
(:func:`cypher_eq`, :func:`cypher_compare`) and the total ordering used by
``ORDER BY`` in the one-shot evaluator (:func:`order_key`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import InvalidValueError

#: Sentinel distinct from ``None`` for "unknown" in three-valued logic
#: results.  Cypher's ``null`` is mapped to Python ``None`` at the value
#: level; three-valued predicate results use ``None`` for *unknown* as well.
NULL = None

_ATOMIC_TYPES = (bool, int, float, str)


class ListValue(tuple):
    """An immutable Cypher list value.

    Subclassing ``tuple`` keeps hashing and equality structural while giving
    lists a distinct type from engine tuples and from :class:`PathValue`.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"[{', '.join(repr(v) for v in self)}]"


class MapValue:
    """An immutable, hashable string-keyed map value."""

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Mapping[str, Any] | Iterable[tuple[str, Any]]):
        items = dict(mapping)
        for key in items:
            if not isinstance(key, str):
                raise InvalidValueError(f"map keys must be strings, got {key!r}")
        frozen = tuple(sorted((k, freeze_value(v)) for k, v in items.items()))
        object.__setattr__(self, "_items", frozen)
        object.__setattr__(self, "_hash", hash(frozen))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MapValue is immutable")

    def __reduce__(self):
        # The default slot-state protocol restores attributes through
        # __setattr__, which immutability forbids; rebuild through the
        # constructor instead (items are already frozen, so this is cheap).
        # Needed so pickle and copy.deepcopy can rebuild immutable values.
        return (MapValue, (self._items,))

    def __getitem__(self, key: str) -> Any:
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self._items:
            if k == key:
                return v
        return default

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self._items)

    def values(self) -> tuple[Any, ...]:
        return tuple(v for _, v in self._items)

    def items(self) -> tuple[tuple[str, Any], ...]:
        return self._items

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MapValue):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._items)
        return "{" + inner + "}"

    def to_dict(self) -> dict[str, Any]:
        """Return a plain mutable ``dict`` copy (values stay frozen)."""
        return dict(self._items)


class PathValue:
    """An atomic path: alternating vertex and edge ids.

    ``vertices`` has length ``len(edges) + 1``.  A zero-length path (a single
    vertex, from a ``*0..`` pattern) has one vertex and no edges.

    Per the paper (§1, §4), paths are the one place where ordering is kept;
    they are updated only as atomic units.  Display form follows the paper's
    convention of listing vertex ids only.
    """

    __slots__ = ("vertices", "edges", "_hash")

    def __init__(self, vertices: Sequence[int], edges: Sequence[int]):
        vertices = tuple(vertices)
        edges = tuple(edges)
        if len(vertices) != len(edges) + 1:
            raise InvalidValueError(
                f"path must alternate: {len(vertices)} vertices need "
                f"{len(vertices) - 1} edges, got {len(edges)}"
            )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_hash", hash((vertices, edges)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("PathValue is immutable")

    def __reduce__(self):
        # See MapValue.__reduce__: slot-state restoration trips the
        # immutability guard, so unpickling goes through the constructor.
        return (PathValue, (self.vertices, self.edges))

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def __len__(self) -> int:
        """Path length is the number of edges (Cypher ``length()``)."""
        return len(self.edges)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathValue):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def __repr__(self) -> str:
        return f"[{', '.join(str(v) for v in self.vertices)}]"

    def contains_edge(self, edge_id: int) -> bool:
        return edge_id in self.edges

    def contains_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self.vertices

    def concat(self, edge_id: int, vertex_id: int) -> "PathValue":
        """Extend this path with one hop; used by path enumeration."""
        return PathValue(self.vertices + (vertex_id,), self.edges + (edge_id,))


def freeze_value(value: Any) -> Any:
    """Normalise *value* into the immutable engine value domain.

    Accepts atoms (``None``, ``bool``, ``int``, ``float``, ``str``), lists,
    tuples, dicts, and already-frozen values.  Raises
    :class:`InvalidValueError` for anything else.
    """
    if value is None or isinstance(value, _ATOMIC_TYPES):
        return value
    if isinstance(value, (ListValue, MapValue, PathValue)):
        return value
    if isinstance(value, (list, tuple)):
        return ListValue(freeze_value(v) for v in value)
    if isinstance(value, dict):
        return MapValue(value)
    raise InvalidValueError(f"unsupported property value: {value!r} ({type(value).__name__})")


def thaw_value(value: Any) -> Any:
    """Inverse-ish of :func:`freeze_value`: produce plain Python containers."""
    if isinstance(value, ListValue):
        return [thaw_value(v) for v in value]
    if isinstance(value, MapValue):
        return {k: thaw_value(v) for k, v in value.items()}
    if isinstance(value, PathValue):
        return list(value.vertices)
    return value


def same_value(a: Any, b: Any) -> bool:
    """Type-exact value identity, for tuples of values (rows) too.

    Python ``==`` conflates ``1``, ``True`` and ``1.0``, and lists or
    paths holding them; Cypher ``=`` does not (``1 = true`` is false), so
    a change between two such values is a change the network must see.
    A NaN is the same value only as the very same object.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):  # rows and ListValue
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, MapValue):
        return same_value(a._items, b._items)
    if isinstance(a, PathValue):
        return a.edges == b.edges and same_value(a.vertices, b.vertices)
    return a == b


def same_properties(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Two property maps hold the same keys and type-exactly the same values."""
    return a == b and all(same_value(value, b[key]) for key, value in a.items())


def is_list_like(value: Any) -> bool:
    """True for values Cypher treats as lists (lists and paths)."""
    return isinstance(value, (ListValue, PathValue))


def cypher_eq(a: Any, b: Any) -> bool | None:
    """Cypher equality under three-valued logic.

    Returns ``True``/``False``, or ``None`` when either side is null
    (or when a nested null makes the comparison unknown).
    """
    if a is None or b is None:
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) and isinstance(b, bool):
            return a is b
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if is_list_like(a) and is_list_like(b):
        xs = list(a.vertices) if isinstance(a, PathValue) else list(a)
        ys = list(b.vertices) if isinstance(b, PathValue) else list(b)
        if len(xs) != len(ys):
            return False
        unknown = False
        for x, y in zip(xs, ys):
            r = cypher_eq(x, y)
            if r is False:
                return False
            if r is None:
                unknown = True
        return None if unknown else True
    if isinstance(a, MapValue) and isinstance(b, MapValue):
        if set(a.keys()) != set(b.keys()):
            return False
        unknown = False
        for k in a.keys():
            r = cypher_eq(a[k], b[k])
            if r is False:
                return False
            if r is None:
                unknown = True
        return None if unknown else True
    # Cross-type comparison between concrete values is simply false.
    return False


def cypher_compare(a: Any, b: Any) -> int | None:
    """Three-valued ordering comparison: -1, 0, 1, or ``None`` (unknown).

    Orderability follows openCypher: numbers compare with numbers, strings
    with strings, booleans with booleans; everything else (and any null) is
    incomparable and yields ``None``.
    """
    if a is None or b is None:
        return None
    if isinstance(a, bool) and isinstance(b, bool):
        return (a > b) - (a < b)
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return (a > b) - (a < b)
    if isinstance(a, str) and isinstance(b, str):
        return (a > b) - (a < b)
    return None


#: Type-rank used by the global sort order (``ORDER BY``); follows the
#: openCypher draft ordering: maps < lists < paths < strings < booleans <
#: numbers < null (null sorts last ascending).
_TYPE_RANK = {
    "map": 0,
    "list": 1,
    "path": 2,
    "str": 3,
    "bool": 4,
    "num": 5,
    "null": 6,
}


def order_key(value: Any) -> tuple:
    """A total-order sort key over the full value domain.

    Used by ``ORDER BY`` and by the canonical listing of an unordered
    result (:func:`repro.eval.results.canonical_order`), which lists the
    same bag identically only if distinct paths get distinct keys.
    """
    if value is None:
        return (_TYPE_RANK["null"],)
    if isinstance(value, bool):
        return (_TYPE_RANK["bool"], value)
    if isinstance(value, (int, float)):
        return (_TYPE_RANK["num"], value)
    if isinstance(value, str):
        return (_TYPE_RANK["str"], value)
    if isinstance(value, PathValue):
        # vertices first; the edge ids only break ties between parallel edges
        return (
            _TYPE_RANK["path"],
            tuple(order_key(v) for v in value.vertices),
            value.edges,
        )
    if isinstance(value, ListValue):
        return (_TYPE_RANK["list"], tuple(order_key(v) for v in value))
    if isinstance(value, MapValue):
        return (
            _TYPE_RANK["map"],
            tuple((k, order_key(v)) for k, v in value.items()),
        )
    raise InvalidValueError(f"unorderable value: {value!r}")
