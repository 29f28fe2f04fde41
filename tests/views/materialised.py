"""The reference a listing read is held to: the interpreter over the same
materialisation.

The catalog serves a read as a slice of a view root's maintained listing.
What that slice must equal is what the interpreter lists when it runs the
read's plan with the root the catalog's walk found replaced by a scan of
that view's bag — the expand-and-sort path over the very state served.
"""

from repro.algebra import ops
from repro.compiler.treeutil import rebuild
from repro.eval import Interpreter


class RootScan(ops.Operator):
    """A leaf standing for a view root: it evaluates to the view's bag."""

    __slots__ = ("view",)

    def __init__(self, schema, view):
        self._init((), schema)
        self._set(view=view)


class ScanInterpreter(Interpreter):
    """The interpreter, able to read a :class:`RootScan`."""

    def _eval_RootScan(self, op: RootScan) -> dict:
        return op.view.multiset()


def _spliced(plan: ops.Operator, root: ops.Operator, scan: RootScan) -> ops.Operator:
    if plan is root:
        return scan
    return rebuild(plan, [_spliced(child, root, scan) for child in plan.children])


def over_the_materialisation(engine, query: str, parameters):
    """*query* run by the interpreter over the view root the catalog would
    serve it from, or ``None`` when no live root lists it."""
    plan = engine.compile(query).plan
    read = engine.catalog.listing_read(plan, parameters or {})
    if read is None:
        return None
    scan = RootScan(read.root.schema, read.view)
    return ScanInterpreter(engine.graph, parameters).run(_spliced(plan, read.root, scan))
