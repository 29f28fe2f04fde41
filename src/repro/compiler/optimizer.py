"""FRA plan optimiser.

Implements the optimisations studied in the companion work the paper cites
for incremental engines ([31], "Evaluation of Optimization Strategies for
Incremental Graph Query Evaluation"): the dominant one for Rete-style
networks is *selection pushdown* — filtering tuples before they reach
stateful join memories shrinks both state and delta traffic.

The pass splits conjunctive predicates and sinks each conjunct as deep as
its variable footprint allows (never through outer-join null-extension,
aggregation, or ordering boundaries, where it would change semantics).
"""

from __future__ import annotations

from ..algebra import ops
from ..algebra.schema import AttrKind
from ..cypher import ast
from .treeutil import rebuild


def split_conjuncts(predicate: ast.Expr) -> list[ast.Expr]:
    if isinstance(predicate, ast.BooleanOp) and predicate.op == "AND":
        out: list[ast.Expr] = []
        for operand in predicate.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [predicate]


def conjoin(predicates: list[ast.Expr]) -> ast.Expr:
    if len(predicates) == 1:
        return predicates[0]
    return ast.BooleanOp("AND", tuple(predicates))


def _select(child: ops.Operator, predicates: list[ast.Expr]) -> ops.Operator:
    if not predicates:
        return child
    return ops.Select(child, conjoin(predicates))


def _push_into(op: ops.Operator, predicates: list[ast.Expr]) -> ops.Operator:
    """Push *predicates* as far down into *op* as legal; returns new tree.

    Any conjunct that cannot sink below *op* is applied directly above it.
    """
    if not predicates:
        return _optimize(op)

    if isinstance(op, ops.Select):
        return _push_into(op.children[0], predicates + split_conjuncts(op.predicate))

    if isinstance(op, ops.Join):
        left, right = op.children
        left_preds, right_preds, here = [], [], []
        for predicate in predicates:
            free = ast.free_variables(predicate)
            if free <= set(left.schema.names):
                left_preds.append(predicate)
            elif free <= set(right.schema.names):
                right_preds.append(predicate)
            else:
                here.append(predicate)
        new = ops.Join(_push_into(left, left_preds), _push_into(right, right_preds))
        return _select(new, here)

    if isinstance(op, (ops.LeftOuterJoin, ops.AntiJoin)):
        # Only left-side pushdown is semantics-preserving: the right side of
        # ⟕ null-extends and the right side of ▷ is negated.
        left, right = op.children
        left_preds, here = [], []
        for predicate in predicates:
            if ast.free_variables(predicate) <= set(left.schema.names):
                left_preds.append(predicate)
            else:
                here.append(predicate)
        new = rebuild(op, [_push_into(left, left_preds), _optimize(right)])
        return _select(new, here)

    if isinstance(op, ops.TransitiveJoin):
        left, edges = op.children
        left_preds, here = [], []
        for predicate in predicates:
            if ast.free_variables(predicate) <= set(left.schema.names):
                left_preds.append(predicate)
            else:
                here.append(predicate)
        new = rebuild(op, [_push_into(left, left_preds), edges])
        return _select(new, here)

    if isinstance(op, ops.Dedup):
        # σ δ ≡ δ σ
        return ops.Dedup(_push_into(op.children[0], predicates))

    if isinstance(op, ops.Unwind):
        below, here = [], []
        for predicate in predicates:
            if op.alias not in ast.free_variables(predicate):
                below.append(predicate)
            else:
                here.append(predicate)
        new = ops.Unwind(_push_into(op.children[0], below), op.expression, op.alias)
        return _select(new, here)

    if isinstance(op, ops.Union):
        left = _push_into(op.children[0], list(predicates))
        # Align names: Union guarantees both sides share the name set.
        right = _push_into(op.children[1], list(predicates))
        return ops.Union(left, right)

    # Barrier operators (Project, Aggregate, Sort/Skip/Limit, base ops, …):
    # optimise below, keep the selection here.
    return _select(_optimize(op), predicates)


def _optimize(op: ops.Operator) -> ops.Operator:
    if isinstance(op, ops.Select):
        return _push_into(op.children[0], split_conjuncts(op.predicate))
    return rebuild(op, [_optimize(c) for c in op.children])


def optimize(plan: ops.Operator) -> ops.Operator:
    """Apply selection pushdown; input and output are valid FRA."""
    return _optimize(plan)


# ---------------------------------------------------------------------------
# parameter-selection lifting (the inverse pass, for cross-binding sharing)
# ---------------------------------------------------------------------------


def _mentions_parameter(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.Parameter) for node in ast.walk(expr))


def lifted_plan(compiled) -> ops.Operator:
    """Memoised :func:`lift_parameter_selections` over a compiled query.

    Registered once per distinct query object (the per-user workload
    registers the *same* compiled query thousands of times, once per
    binding), the lifted plan — and with it every operator's memoised
    fingerprint — is computed once and cached on the object itself.
    """
    try:
        return compiled._lifted_plan
    except AttributeError:
        pass
    plan = lift_parameter_selections(compiled.plan)
    object.__setattr__(compiled, "_lifted_plan", plan)
    return plan


def lift_parameter_selections(plan: ops.Operator) -> ops.Operator:
    """Hoist parameter-dependent σ conjuncts as high as legality allows.

    Selection pushdown is the right default for a single view, but it is
    what makes the canonical "same query, one view per user" workload
    share nothing: once ``σ[a.uid = $uid]`` sits at the bottom, every
    interior subtree mentions the parameter and every view rebuilds the
    whole chain privately.  This pass applies the *same* commutation rules
    as :func:`optimize` in reverse, but only to conjuncts that mention a
    ``$parameter``: they rise through joins (from the left side of ⟕ / ▷ /
    ⋈* only — the same boundaries pushdown respects), dedup and unwind,
    and stop below π / γ / ∪ and at the root, leaving a maximal
    *binding-free core* underneath a single parameterised σ — exactly the
    shape the binding-indexed sharing tier cuts over at.

    Binding-free conjuncts stay pushed down (they shrink the shared core
    for every binding alike).  The output plan is equivalent: both
    directions of each commutation are semantics-preserving, which the
    cross-binding differential suite exercises end to end.
    """
    if not any(
        isinstance(op, ops.Select) and _mentions_parameter(op.predicate)
        for op in plan.walk()
    ):
        return plan  # identity keeps memoised fingerprints and is-checks
    lifted, rising = _lift(plan)
    return _select(lifted, rising)


def _lift(op: ops.Operator) -> tuple[ops.Operator, list[ast.Expr]]:
    """Returns *op* rebuilt plus the parameter conjuncts still rising."""
    if isinstance(op, ops.Select):
        child, rising = _lift(op.children[0])
        staying = []
        for conjunct in split_conjuncts(op.predicate):
            if _mentions_parameter(conjunct):
                rising.append(conjunct)
            else:
                staying.append(conjunct)
        return _select(child, staying), rising

    if isinstance(op, ops.Join):
        left, left_rising = _lift(op.children[0])
        right, right_rising = _lift(op.children[1])
        # every lifted column survives a natural join, so both sides rise
        return ops.Join(left, right), left_rising + right_rising

    if isinstance(op, (ops.LeftOuterJoin, ops.AntiJoin, ops.TransitiveJoin)):
        # only the left side commutes (null-extension / negation / closure
        # boundaries — the mirror of pushdown's left-only rule); right-side
        # conjuncts re-apply where they were
        left, left_rising = _lift(op.children[0])
        if isinstance(op, ops.TransitiveJoin):
            right = op.children[1]  # the edges child is structural
        else:
            right_child, right_rising = _lift(op.children[1])
            right = _select(right_child, right_rising)
        return rebuild(op, [left, right]), left_rising

    if isinstance(op, (ops.Dedup, ops.Unwind)):
        # σ δ ≡ δ σ; ω only appends a column, so conjuncts from below
        # (which cannot mention the alias) commute
        child, rising = _lift(op.children[0])
        return rebuild(op, [child]), rising

    # Barrier operators (Project, Aggregate, Union, ordering, base ops):
    # children keep their lifted conjuncts directly below this operator.
    children = []
    for child in op.children:
        lifted, rising = _lift(child)
        children.append(_select(lifted, rising))
    return rebuild(op, children), []


def prune_unused_path_aliases(plan: ops.Operator) -> ops.Operator:
    """Drop path attributes no expression ever observes (GRA stage).

    The pattern compiler materialises a path for every variable-length
    segment (named paths, relationship-list variables and edge-uniqueness
    predicates need them).  When nothing references the path, dropping it
    keeps tuples narrower: the ⋈* node still maintains the trails, but
    emits only their end vertex.
    """
    from ..algebra.fra import _expressions_of

    used: set[str] = set()
    for op in plan.walk():
        for expr in _expressions_of(op):
            used |= ast.free_variables(expr)

    def prune(op: ops.Operator) -> ops.Operator:
        children = [prune(c) for c in op.children]
        if (
            isinstance(op, ops.ExpandOut)
            and op.path_alias is not None
            and op.path_alias not in used
        ):
            return ops.ExpandOut(
                children[0],
                src=op.src,
                edge=op.edge,
                tgt=op.tgt,
                types=op.types,
                tgt_labels=op.tgt_labels,
                direction=op.direction,
                min_hops=op.min_hops,
                max_hops=op.max_hops,
                path_alias=None,
            )
        return rebuild(op, children)

    return prune(plan)


# ---------------------------------------------------------------------------
# join-side narrowing (what a Rete network's join memories store)
# ---------------------------------------------------------------------------


def built_plan(compiled, lifted: bool = False) -> ops.Operator:
    """Memoised :func:`narrow_join_sides` over a compiled query's plan (or,
    with *lifted*, over its :func:`lifted_plan`): the plan an incremental
    engine builds.  ``compiled.plan`` itself stays unnarrowed — it is what
    one-shot evaluation runs, so every recomputation oracle checks this
    pass instead of sharing it."""
    attr = "_built_lifted_plan" if lifted else "_built_plan"
    try:
        return getattr(compiled, attr)
    except AttributeError:
        pass
    plan = narrow_join_sides(lifted_plan(compiled) if lifted else compiled.plan)
    object.__setattr__(compiled, attr, plan)
    return plan


def narrow_join_sides(plan: ops.Operator) -> ops.Operator:
    """Fold label-only scans into their edges, then narrow join sides.

    * A ``©`` with no pushed-down column joined on one endpoint of a ``⇑``
      (bare or under σ) is the label check the ``⇑`` already knows how to
      make: the join becomes that ``⇑`` with the labels added to
      ``src_labels`` / ``tgt_labels`` (with no label it is an identity).
    * Every ⋈, ⟕ and ▷ side is cut to the columns read above it — join
      keys, σ conjuncts, π / γ / ω expressions, and all of a δ, ∪ or
      ordering operator's input — by a π of bare columns in child-schema
      order.  A bag π keeps multiplicities, so rows equal on the kept
      columns become one memory slot with their summed weight.  A kept
      value column keeps its entity's id beside it (:func:`_narrow_side`).
    * A σ conjunct equating a vertex column of each side of the ⋈ right
      below it — a cyclic pattern's second visit of a vertex — joins on
      it instead (:func:`_key_on_equated_vertices`).

    The root schema is unchanged and the pass is idempotent; a plan with
    nothing to fold or narrow comes back as the same object.
    """
    names = plan.schema.names
    narrowed = _narrow(_fold_label_scans(plan), frozenset(names))
    if narrowed.schema.names != names:
        narrowed = _pick(narrowed, names)  # a fold reordered the root
    return narrowed


def _pick(child: ops.Operator, names) -> ops.Operator:
    """*child* cut to the columns *names*: one π of bare columns, the
    child's own when it is one already."""
    if isinstance(child, ops.Project) and all(
        isinstance(expr, ast.Variable) for _, expr in child.items
    ):
        items = dict(child.items)
        return ops.Project(child.children[0], tuple((name, items[name]) for name in names))
    return ops.Project(child, tuple((name, ast.Variable(name)) for name in names))


def _fold_label_scans(op: ops.Operator) -> ops.Operator:
    children = [_fold_label_scans(child) for child in op.children]
    if isinstance(op, ops.Join):
        for scan, other in (children, children[::-1]):
            if isinstance(scan, ops.GetVertices) and not scan.projections:
                folded = _with_endpoint_labels(other, scan.var, scan.labels)
                if folded is not None:
                    return folded
    return rebuild(op, children)


def _with_endpoint_labels(
    side: ops.Operator, var: str, labels: tuple[str, ...]
) -> ops.Operator | None:
    """*side* — a ⇑ under σ only, with *var* an endpoint — requiring
    *labels* of that endpoint, or ``None`` when *side* is no such ⇑."""
    if isinstance(side, ops.Select):
        inner = _with_endpoint_labels(side.children[0], var, labels)
        return None if inner is None else ops.Select(inner, side.predicate)
    if not (isinstance(side, ops.GetEdges) and var in (side.src, side.tgt)):
        return None
    edges = side
    src_labels, tgt_labels = edges.src_labels, edges.tgt_labels
    if var == edges.src:
        src_labels = tuple(dict.fromkeys(src_labels + labels))
    else:
        tgt_labels = tuple(dict.fromkeys(tgt_labels + labels))
    return ops.GetEdges(
        edges.src,
        edges.edge,
        edges.tgt,
        types=edges.types,
        src_labels=src_labels,
        tgt_labels=tgt_labels,
        directed=edges.directed,
        projections=edges.projections,
    )


_JOINS = (ops.Join, ops.LeftOuterJoin, ops.AntiJoin)


def _reads(exprs) -> frozenset[str]:
    names: set[str] = set()
    for expr in exprs:
        names |= ast.free_variables(expr)
    return frozenset(names)


def _narrow(op: ops.Operator, needed: frozenset[str]) -> ops.Operator:
    """*op* with every join side below it cut to what is read above it;
    *needed* names the columns of *op* that its parent reads."""
    if isinstance(op, ops.Select) and isinstance(op.children[0], ops.Join):
        keyed = _key_on_equated_vertices(op, needed)
        if keyed is not op:
            return _narrow(keyed, needed)
    if isinstance(op, _JOINS):
        left, right = op.children
        keys = frozenset(op.common)
        # ▷ reads nothing of its right side but the keys it counts
        right_needed = keys if isinstance(op, ops.AntiJoin) else needed | keys
        return rebuild(
            op, [_narrow_side(left, needed | keys), _narrow_side(right, right_needed)]
        )
    if isinstance(op, ops.TransitiveJoin):
        left, edges = op.children
        return rebuild(op, [_narrow(left, needed | {op.source}), edges])
    if isinstance(op, ops.Select):
        reads = needed | _reads([op.predicate])
    elif isinstance(op, ops.Project):
        reads = _reads(expr for _, expr in op.items)
    elif isinstance(op, ops.Aggregate):
        reads = _reads(expr for _, expr in op.keys) | _reads(
            spec.argument for spec in op.aggregates if spec.argument is not None
        )
    elif isinstance(op, ops.Unwind):
        reads = (needed - {op.alias}) | _reads([op.expression])
    else:
        # δ and ∪ observe whole rows, ordering operators break ties on
        # them; base relations have no children
        return rebuild(
            op, [_narrow(c, frozenset(c.schema.names)) for c in op.children]
        )
    return rebuild(op, [_narrow(op.children[0], reads)])


def _key_on_equated_vertices(select: ops.Select, needed: frozenset[str]) -> ops.Operator:
    """``σ[a = b](L ⋈ R)``, *a* a vertex column of *L* alone and *b* one of
    *R* alone, as ``L ⋈ π[b AS a](R)`` under the rest of the σ — when
    nothing above reads *b*; else *select* itself.

    Vertex ids are ``==`` exactly when they are the same vertex, so the
    hash join on *a* keeps the rows the conjunct keeps and no other.
    """
    left, right = select.children[0].children
    left_only = set(left.schema.names) - set(right.schema.names)
    right_only = set(right.schema.names) - set(left.schema.names)
    conjuncts = split_conjuncts(select.predicate)
    for position, conjunct in enumerate(conjuncts):
        if not (
            isinstance(conjunct, ast.Comparison)
            and conjunct.ops == ("=",)
            and all(isinstance(operand, ast.Variable) for operand in conjunct.operands)
        ):
            continue
        a, b = (operand.name for operand in conjunct.operands)
        if a in right_only:
            a, b = b, a
        rest = conjuncts[:position] + conjuncts[position + 1 :]
        if (
            a in left_only
            and b in right_only
            and left.schema.kind_of(a) is AttrKind.VERTEX
            and right.schema.kind_of(b) is AttrKind.VERTEX
            and b not in needed | _reads(rest)
        ):
            renamed = ops.Project(
                right,
                tuple((a if n == b else n, ast.Variable(n)) for n in right.schema.names),
            )
            return _select(ops.Join(left, renamed), rest)
    return select


def _narrow_side(side: ops.Operator, needed: frozenset[str]) -> ops.Operator:
    """*side* cut to the columns *needed* above it, each kept value column
    with the id of the entity it belongs to.

    Ids (and paths, which hold only ids) that are ``==`` are the same
    value.  Property values are not: ``1``, ``True`` and ``1.0`` are
    ``==`` but differ in Cypher, and a memory slot, a row delta and a bag
    π all merge ``==`` rows.  With the value's entity id kept, rows that
    merge hold one entity's value, so they hold the identical value.  A
    kept value column with no such id (a γ or ω result, a renamed
    expression) leaves the side whole.
    """
    narrowed = _narrow(side, needed)
    schema = narrowed.schema
    names = schema.names
    kept = {name for name in names if name in needed} or set(names[:1])
    subjects = _subjects(narrowed)
    for name in tuple(kept):
        if schema.kind_of(name) is AttrKind.VALUE:
            if name not in subjects:
                return narrowed
            kept.add(subjects[name])
    if len(kept) == len(names):
        return narrowed
    return _pick(narrowed, [name for name in names if name in kept])


def _subjects(op: ops.Operator) -> dict[str, str]:
    """Value column of *op* → the id column of *op* whose entity it is a
    pushed-down property (label set, type, property map) of."""
    if isinstance(op, (ops.GetVertices, ops.GetEdges)):
        return {p.output: p.subject for p in op.projections}
    if isinstance(op, ops.Project):
        inner = _subjects(op.children[0])
        bare = [(name, e.name) for name, e in op.items if isinstance(e, ast.Variable)]
        renamed = {source: name for name, source in bare}
        return {
            name: renamed[inner[source]]
            for name, source in bare
            if inner.get(source) in renamed
        }
    if isinstance(op, ops.AntiJoin):
        return _subjects(op.children[0])
    if isinstance(
        op, (ops.Select, ops.Dedup, ops.Join, ops.LeftOuterJoin, ops.TransitiveJoin)
    ):
        # each keeps its inputs' columns under their own names
        found: dict[str, str] = {}
        for child in op.children:
            found.update(_subjects(child))
        return found
    return {}
