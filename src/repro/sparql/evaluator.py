"""Evaluation of SPARQL ASTs over a :class:`repro.rdf.Graph`.

Solutions are plain dicts mapping variable name → Term.  The evaluator
follows the SPARQL algebra closely:

* group patterns evaluate left-to-right; each basic block of triple
  patterns is joined against the current partial solutions over
  dictionary ids (index-backed, most selective first), and the
  variables it binds are decoded once, at the block's edge;
* a property path walks id sets and decodes each node it reaches once;
  the store is read through ``triples_ids`` / ``count_ids`` alone, so
  a flat store, a sharded one and an extension view serve it alike;
* ``OPTIONAL`` is a left-outer join, ``UNION`` a concatenation,
  ``MINUS`` an anti-join on shared variables, ``FILTER`` is applied to
  the group it appears in;
* aggregation partitions solutions by the GROUP BY key, evaluates each
  aggregate per partition and applies HAVING afterwards;
* expression errors inside FILTER/HAVING make the condition false; in
  projections and BIND they leave the variable unbound.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.sparql import ast
from repro.sparql.errors import ExpressionError, SparqlEvalError
from repro.sparql.functions import (
    BUILTINS,
    aggregate as eval_aggregate,
    arithmetic,
    compare,
    effective_boolean_value,
    make_boolean,
    wrap_number,
    xsd_cast,
)
from repro.sparql.parser import parse_query
from repro.sparql.results import Row, SelectResult

Solution = Dict[str, Term]
#: What :func:`evaluate` answers: SELECT rows, an ASK verdict or a
#: CONSTRUCTed graph.
QueryResult = Union[SelectResult, bool, Graph]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class _ExprContext:
    """What an expression may see: the solution, the graph (for EXISTS),
    and — during aggregation — the precomputed aggregate values and the
    values of the GROUP BY key expressions for the current group."""

    __slots__ = ("graph", "aggregates", "group_keys")

    def __init__(
        self,
        graph: Graph,
        aggregates: Optional[Dict[ast.Aggregate, Term]] = None,
        group_keys: Optional[Dict[ast.Expression, Optional[Term]]] = None,
    ):
        self.graph = graph
        self.aggregates = aggregates
        self.group_keys = group_keys


def eval_expression(expr: ast.Expression, solution: Solution, ctx: _ExprContext) -> Term:
    """Evaluate an expression to a Term; raises ExpressionError on failure."""
    if ctx.group_keys is not None and not isinstance(expr, ast.Var):
        try:
            if expr in ctx.group_keys:
                value = ctx.group_keys[expr]
                if value is None:
                    raise ExpressionError("group key expression errored")
                return value
        except TypeError:
            pass  # unhashable node — fall through to normal evaluation
    if isinstance(expr, ast.Var):
        term = solution.get(expr.name)
        if term is None:
            raise ExpressionError(f"unbound variable ?{expr.name}")
        return term
    if isinstance(expr, ast.TermExpr):
        return expr.term
    if isinstance(expr, ast.Aggregate):
        if ctx.aggregates is None or expr not in ctx.aggregates:
            raise ExpressionError("aggregate used outside aggregation context")
        value = ctx.aggregates[expr]
        if value is None:
            raise ExpressionError("aggregate produced no value")
        return value
    if isinstance(expr, ast.Unary):
        if expr.op == "!":
            return make_boolean(
                not effective_boolean_value(eval_expression(expr.operand, solution, ctx))
            )
        operand = eval_expression(expr.operand, solution, ctx)
        return arithmetic("-" if expr.op == "-" else "+",
                          _zero(), operand) if expr.op == "-" else operand
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, solution, ctx)
    if isinstance(expr, ast.FunctionCall):
        return _eval_function(expr, solution, ctx)
    if isinstance(expr, ast.InExpr):
        return _eval_in(expr, solution, ctx)
    if isinstance(expr, ast.ExistsExpr):
        solutions = _eval_group(expr.pattern, [dict(solution)], ctx.graph)
        found = bool(solutions)
        return make_boolean(found != expr.negated)
    raise SparqlEvalError(f"unknown expression node {type(expr).__name__}")


def _zero() -> Literal:
    return Literal("0", "http://www.w3.org/2001/XMLSchema#integer")


def _eval_binary(expr: ast.Binary, solution: Solution, ctx: _ExprContext) -> Term:
    if expr.op == "&&":
        # SPARQL three-valued logic: an error on one side is tolerated if
        # the other side already decides the outcome.
        left = _try_ebv(expr.left, solution, ctx)
        right = _try_ebv(expr.right, solution, ctx)
        if left is False or right is False:
            return make_boolean(False)
        if left is None or right is None:
            raise ExpressionError("error in && operand")
        return make_boolean(True)
    if expr.op == "||":
        left = _try_ebv(expr.left, solution, ctx)
        right = _try_ebv(expr.right, solution, ctx)
        if left is True or right is True:
            return make_boolean(True)
        if left is None or right is None:
            raise ExpressionError("error in || operand")
        return make_boolean(False)
    left = eval_expression(expr.left, solution, ctx)
    right = eval_expression(expr.right, solution, ctx)
    if expr.op in ("=", "!=", "<", ">", "<=", ">="):
        return make_boolean(compare(expr.op, left, right))
    if expr.op in ("+", "-", "*", "/"):
        return arithmetic(expr.op, left, right)
    raise SparqlEvalError(f"unknown operator {expr.op!r}")


def _try_ebv(expr: ast.Expression, solution: Solution, ctx: _ExprContext) -> Optional[bool]:
    try:
        return effective_boolean_value(eval_expression(expr, solution, ctx))
    except ExpressionError:
        return None


def _eval_function(expr: ast.FunctionCall, solution: Solution, ctx: _ExprContext) -> Term:
    name = expr.name
    if name == "BOUND":
        if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Var):
            raise ExpressionError("BOUND requires a single variable")
        return make_boolean(expr.args[0].name in solution)
    if name == "IF":
        condition = effective_boolean_value(
            eval_expression(expr.args[0], solution, ctx)
        )
        branch = expr.args[1] if condition else expr.args[2]
        return eval_expression(branch, solution, ctx)
    if name == "COALESCE":
        for arg in expr.args:
            try:
                return eval_expression(arg, solution, ctx)
            except ExpressionError:
                continue
        raise ExpressionError("all COALESCE branches failed")
    args = [eval_expression(arg, solution, ctx) for arg in expr.args]
    if name in BUILTINS:
        return BUILTINS[name](args)
    if name.startswith("http://www.w3.org/2001/XMLSchema#"):
        if len(args) != 1:
            raise ExpressionError("casts take exactly one argument")
        return xsd_cast(name, args[0])
    raise ExpressionError(f"unknown function {name!r}")


def _eval_in(expr: ast.InExpr, solution: Solution, ctx: _ExprContext) -> Term:
    needle = eval_expression(expr.expr, solution, ctx)
    found = False
    for option in expr.options:
        try:
            candidate = eval_expression(option, solution, ctx)
        except ExpressionError:
            continue
        if compare("=", needle, candidate):
            found = True
            break
    return make_boolean(found != expr.negated)


def _filter_passes(condition: ast.Expression, solution: Solution, ctx: _ExprContext) -> bool:
    try:
        return effective_boolean_value(eval_expression(condition, solution, ctx))
    except ExpressionError:
        return False


# ---------------------------------------------------------------------------
# Triple pattern matching
# ---------------------------------------------------------------------------
def _slot_value(slot: ast.Slot, solution: Solution) -> Optional[Term]:
    """Resolve a pattern slot under a solution: Term or None (free)."""
    if isinstance(slot, ast.Var):
        return solution.get(slot.name)
    return slot


def _match_block(block: List[ast.TriplePattern], solutions: List[Solution],
                 graph: Graph) -> List[Solution]:
    """Join one basic block of triple patterns in id space.

    A row is a list: the incoming solution it extends, then one id per
    variable (``None`` while unbound) or constant of the block, so that
    every slot of a pattern is a row position.  Constants and incoming
    bindings are encoded once; a term the store never saw matches
    nothing.  Each probe is one ``triples_ids`` call; a row's first
    match extends it in place and each further match a copy.  Each
    variable the block binds is decoded once per row, at the end.
    """
    at: Dict[object, int] = {}  # variable name or constant Term -> position
    for tp in block:
        for slot in (tp.s, tp.p, tp.o):
            key = slot.name if isinstance(slot, ast.Var) else slot
            at.setdefault(key, len(at) + 1)
    encode = graph.encode_term
    template: list = [None] * (len(at) + 1)
    for key, i in at.items():
        if not isinstance(key, str):
            template[i] = encode(key)
            if template[i] is None:
                return []
    names = [key for key in at if isinstance(key, str)]
    bound = set(names)
    rows: List[list] = []
    for solution in solutions:
        row = template.copy()
        row[0] = solution
        for name in names:
            term = solution.get(name)
            if term is None:
                bound.discard(name)
                continue
            row[at[name]] = encode(term)
            if row[at[name]] is None:
                break
        else:
            rows.append(row)
    edge = [(name, at[name]) for name in names if name not in bound]
    narrow = getattr(graph, "store_for", None)
    block = list(block)
    while block and rows:
        block = plan_block(block, bound, graph)
        tp = block.pop(0)
        keys = [slot.name if isinstance(slot, ast.Var) else slot
                for slot in (tp.s, tp.p, tp.o)]
        a, b, c = (at[key] for key in keys)
        fill: List[Tuple[int, int]] = []  # (slot, position) of a new variable
        same: List[Tuple[int, int]] = []  # two slots of one new variable
        for k, key in enumerate(keys):
            if isinstance(key, str) and key not in bound:
                first = keys.index(key)
                if first < k:
                    same.append((first, k))
                else:
                    fill.append((k, at[key]))
        probe = (graph if narrow is None else narrow(
            None if isinstance(keys[1], str) else template[b],
            None if isinstance(keys[2], str) else template[c])).triples_ids
        out = []
        for row in rows:
            taken = False
            for match in probe(row[a], row[b], row[c]):
                if same and any(match[j] != match[k] for j, k in same):
                    continue
                if taken:  # the first match has the row: copy it
                    row = row.copy()
                for k, i in fill:
                    row[i] = match[k]
                out.append(row)
                taken = True
        rows = out
        bound.update(key for key in keys if isinstance(key, str))
    decode = graph.decode_id
    matched: List[Solution] = []
    for row in rows:
        solution = dict(row[0]) if edge else row[0]
        for name, i in edge:
            solution[name] = decode(row[i])
        matched.append(solution)
    return matched


def _pattern_selectivity(pattern: ast.TriplePattern, solution_vars: set,
                         graph: Graph) -> Tuple[int, int]:
    """Heuristic: patterns with more bound slots first, then smaller index.

    The cardinality probes are ``count_ids`` calls, O(1): the store
    maintains per-predicate counters incrementally, and the
    per-(predicate, object) extent is a direct POS index-set size — so
    re-planning on every block flush costs nothing even on large graphs.
    A constant the store never saw matches nothing: estimate 0.
    """
    bound = 0
    for slot in (pattern.s, pattern.p, pattern.o):
        if not isinstance(slot, ast.Var) or slot.name in solution_vars:
            bound += 1
    estimate = len(graph)
    if not isinstance(pattern.p, ast.Var):
        free_object = isinstance(pattern.o, ast.Var)
        pi = graph.encode_term(pattern.p)
        oi = None if free_object else graph.encode_term(pattern.o)
        estimate = (0 if pi is None or (oi is None and not free_object)
                    else graph.count_ids(None, pi, oi))
    return (-bound, estimate)


def plan_block(block: List[ast.TriplePattern], bound_vars: set,
               graph: Graph) -> List[ast.TriplePattern]:
    """The evaluation order of one basic block: most selective first.

    Exposed for the planner tests; :func:`_eval_group` re-sorts the
    remaining patterns after each join so freshly bound variables count
    as bound slots in the next pick.
    """
    return sorted(
        block, key=lambda tp: _pattern_selectivity(tp, bound_vars, graph)
    )


def _path_targets(graph: Graph, nodes: Iterable[int], path: ast.Path) -> set:
    """The ids of all nodes reachable from the ids ``nodes`` along
    ``path`` (SPARQL 1.1 path semantics; quantified paths are evaluated
    as node closures).  Each step is one ``triples_ids`` probe per node:
    a literal has no SPO row, and an inverse step may start from one."""
    if isinstance(path, ast.PredicatePath):
        pi = graph.encode_term(path.predicate)
        if pi is None:
            return set()
        if path.inverse:
            return {s for node in nodes
                    for s, _, _ in graph.triples_ids(None, pi, node)}
        return {o for node in nodes
                for _, _, o in graph.triples_ids(node, pi, None)}
    if isinstance(path, ast.SequencePath):
        current = set(nodes)
        for step in path.steps:
            current = _path_targets(graph, current, step)
            if not current:
                break
        return current
    if isinstance(path, ast.AlternativePath):
        out = set()
        for option in path.options:
            out |= _path_targets(graph, nodes, option)
        return out
    if isinstance(path, ast.QuantifiedPath):
        if path.quantifier == "?":
            return set(nodes) | _path_targets(graph, nodes, path.inner)
        # '*' and '+': breadth-first closure.
        closure = set(nodes) if path.quantifier == "*" else set()
        frontier = set(nodes)
        visited = set(nodes)
        while frontier:
            step = _path_targets(graph, frontier, path.inner)
            new = step - visited
            closure |= step
            visited |= new
            frontier = new
        return closure
    raise SparqlEvalError(f"unknown path node {type(path).__name__}")


def _invert_path(path):
    if isinstance(path, ast.PredicatePath):
        return ast.PredicatePath(path.predicate, not path.inverse)
    if isinstance(path, ast.SequencePath):
        return ast.SequencePath(
            tuple(_invert_path(step) for step in reversed(path.steps))
        )
    if isinstance(path, ast.AlternativePath):
        return ast.AlternativePath(
            tuple(_invert_path(option) for option in path.options)
        )
    if isinstance(path, ast.QuantifiedPath):
        return ast.QuantifiedPath(_invert_path(path.inner), path.quantifier)
    raise SparqlEvalError(f"cannot invert {type(path).__name__}")


def _nullable(path: ast.Path) -> bool:
    """Does ``path`` match the zero-length walk?"""
    if isinstance(path, ast.PredicatePath):
        return False
    if isinstance(path, ast.SequencePath):
        return all(map(_nullable, path.steps))
    if isinstance(path, ast.AlternativePath):
        return any(map(_nullable, path.options))
    return path.quantifier != "+" or _nullable(path.inner)


def _reached(graph: Graph, start: Term, path: ast.Path) -> set:
    """The nodes ``path`` reaches from the bound end ``start``, walked in
    ids and decoded once.  A term the store never saw has no edge, so
    only the zero-length walk reaches it: from itself."""
    ident = graph.encode_term(start)
    if ident is None:
        return {start} if _nullable(path) else set()
    return set(map(graph.decode_id, _path_targets(graph, (ident,), path)))


def _match_path(pattern: ast.PathPattern, solutions: List[Solution],
                graph: Graph) -> List[Solution]:
    out: List[Solution] = []
    nodes: Optional[Dict[int, Term]] = None
    for solution in solutions:
        s = _slot_value(pattern.s, solution)
        o = _slot_value(pattern.o, solution)
        if s is not None:
            targets = _reached(graph, s, pattern.path)
            if o is None:
                out.extend({**solution, pattern.o.name: target}
                           for target in targets)
            elif o in targets:
                out.append(solution)
            continue
        if o is not None:
            out.extend({**solution, pattern.s.name: source} for source
                       in _reached(graph, o, _invert_path(pattern.path)))
            continue
        # Both ends unbound: every subject and object is a start (the
        # zero-length path semantics), read off one scan.
        if nodes is None:
            ends = {i for t in graph.triples_ids() for i in (t[0], t[2])}
            nodes = {ident: graph.decode_id(ident) for ident in ends}
        for start, term in nodes.items():
            for target in _path_targets(graph, (start,), pattern.path):
                if pattern.s.name != pattern.o.name:
                    out.append({**solution, pattern.s.name: term,
                                pattern.o.name: nodes[target]})
                elif target == start:
                    out.append({**solution, pattern.s.name: term})
    return out


# ---------------------------------------------------------------------------
# Group pattern evaluation
# ---------------------------------------------------------------------------
def _eval_group(group: ast.GroupPattern, solutions: List[Solution],
                graph: Graph) -> List[Solution]:
    """Evaluate a group's children against incoming solutions."""
    filters: List[ast.Filter] = []
    pending_triples: List[ast.TriplePattern] = []

    def flush_triples(current: List[Solution]) -> List[Solution]:
        if not pending_triples:
            return current
        block = list(pending_triples)
        pending_triples.clear()
        return _match_block(block, current, graph)

    current = solutions
    for child in group.children:
        if isinstance(child, ast.TriplePattern):
            pending_triples.append(child)
            continue
        current = flush_triples(current)
        if isinstance(child, ast.Filter):
            filters.append(child)
        elif isinstance(child, ast.PathPattern):
            current = _match_path(child, current, graph)
        elif isinstance(child, ast.Optional_):
            current = _eval_optional(child, current, graph)
        elif isinstance(child, ast.Union):
            left = _eval_group(child.left, [dict(s) for s in current], graph)
            right = _eval_group(child.right, [dict(s) for s in current], graph)
            current = left + right
        elif isinstance(child, ast.Minus):
            current = _eval_minus(child, current, graph)
        elif isinstance(child, ast.Bind):
            ctx = _ExprContext(graph)
            for solution in current:
                if child.var.name in solution:
                    raise SparqlEvalError(
                        f"BIND would rebind ?{child.var.name}"
                    )
                try:
                    solution[child.var.name] = eval_expression(
                        child.expr, solution, ctx
                    )
                except ExpressionError:
                    pass  # variable stays unbound
        elif isinstance(child, ast.InlineValues):
            current = _eval_values(child, current)
        elif isinstance(child, ast.GroupPattern):
            current = _eval_group(child, current, graph)
        elif isinstance(child, ast.SubSelect):
            current = _eval_subselect(child.query, current, graph)
        else:
            raise SparqlEvalError(f"unknown pattern node {type(child).__name__}")
    current = flush_triples(current)
    ctx = _ExprContext(graph)
    for flt in filters:
        current = [s for s in current if _filter_passes(flt.condition, s, ctx)]
    return current


def _eval_optional(node: ast.Optional_, solutions: List[Solution],
                   graph: Graph) -> List[Solution]:
    out: List[Solution] = []
    for solution in solutions:
        extended = _eval_group(node.pattern, [dict(solution)], graph)
        if extended:
            out.extend(extended)
        else:
            out.append(solution)
    return out


def _eval_minus(node: ast.Minus, solutions: List[Solution],
                graph: Graph) -> List[Solution]:
    removed = _eval_group(node.pattern, [{}], graph)
    out: List[Solution] = []
    for solution in solutions:
        excluded = False
        for other in removed:
            shared = set(solution.keys()) & set(other.keys())
            if shared and all(solution[v] == other[v] for v in shared):
                excluded = True
                break
        if not excluded:
            out.append(solution)
    return out


def _eval_values(node: ast.InlineValues, solutions: List[Solution]) -> List[Solution]:
    out: List[Solution] = []
    for solution in solutions:
        for row in node.rows:
            candidate = dict(solution)
            ok = True
            for var, term in zip(node.variables, row):
                if term is None:
                    continue
                bound = candidate.get(var.name)
                if bound is None:
                    candidate[var.name] = term
                elif bound != term:
                    ok = False
                    break
            if ok:
                out.append(candidate)
    return out


def _eval_subselect(query: ast.SelectQuery, solutions: List[Solution],
                    graph: Graph) -> List[Solution]:
    inner = _eval_select(query, graph)
    inner_solutions = [dict(row.items()) for row in inner.rows]
    out: List[Solution] = []
    for solution in solutions:
        for other in inner_solutions:
            shared = set(solution.keys()) & set(other.keys())
            if all(solution[v] == other[v] for v in shared):
                merged = dict(solution)
                merged.update(other)
                out.append(merged)
    return out


# ---------------------------------------------------------------------------
# SELECT evaluation: grouping, aggregation, projection, modifiers
# ---------------------------------------------------------------------------
def _collect_aggregates(exprs: Iterable[ast.Expression]) -> List[ast.Aggregate]:
    found: List[ast.Aggregate] = []

    def walk(node):
        if isinstance(node, ast.Aggregate):
            if node not in found:
                found.append(node)
            return
        if isinstance(node, ast.Unary):
            walk(node.operand)
        elif isinstance(node, ast.Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.InExpr):
            walk(node.expr)
            for opt in node.options:
                walk(opt)

    for expr in exprs:
        if expr is not None:
            walk(expr)
    return found


def _needs_aggregation(query: ast.SelectQuery) -> bool:
    if query.group_by or query.having:
        return True
    exprs = [p.expr for p in query.projections if p.expr is not None]
    return bool(_collect_aggregates(exprs))


def _binding(expr: ast.Expression, solution: Solution,
             ctx: _ExprContext) -> Optional[Term]:
    """``expr``'s value under ``solution``, ``None`` on an error — read
    straight from the binding when ``expr`` is a plain variable."""
    if isinstance(expr, ast.Var):
        return solution.get(expr.name)
    try:
        return eval_expression(expr, solution, ctx)
    except ExpressionError:
        return None


def _group_key(group_exprs: Sequence[ast.Expression], solution: Solution,
               ctx: _ExprContext) -> Tuple[Optional[Term], ...]:
    return tuple(_binding(expr, solution, ctx) for expr in group_exprs)


def _aggregate_groups(query: ast.SelectQuery, solutions: List[Solution],
                      graph: Graph) -> List[Solution]:
    ctx = _ExprContext(graph)
    groups: Dict[tuple, List[Solution]] = {}
    order: List[tuple] = []
    if query.group_by:
        for solution in solutions:
            key = _group_key(query.group_by, solution, ctx)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(solution)
    else:
        # Implicit single group (possibly empty).
        key = ()
        groups[key] = list(solutions)
        order.append(key)

    agg_exprs = _collect_aggregates(
        [p.expr for p in query.projections if p.expr is not None]
        + list(query.having)
        + [c.expr for c in query.order_by]
    )

    out: List[Solution] = []
    for key in order:
        members = groups[key]
        # Representative solution carries the group-key bindings.
        representative: Solution = {}
        for expr, value in zip(query.group_by, key):
            if isinstance(expr, ast.Var) and value is not None:
                representative[expr.name] = value
        if members and query.group_by:
            # Also keep bindings constant across the group (safe extras;
            # a group key is one by definition).
            first = members[0]
            constant = {
                k: v for k, v in first.items() if k in representative
                or all((w := m.get(k)) is v or w == v for m in members)
            }
            constant.update(representative)
            representative = constant
        computed: Dict[ast.Aggregate, Term] = {}
        for agg in agg_exprs:
            if agg.expr is None:  # COUNT(*)
                counted = ({frozenset(m.items()) for m in members}
                           if agg.distinct else members)
                computed[agg] = wrap_number(len(counted))
                continue
            values = [_binding(agg.expr, member, ctx) for member in members]
            computed[agg] = eval_aggregate(
                agg.name, values, agg.distinct, agg.separator
            )
        key_values: Dict[ast.Expression, Optional[Term]] = dict(
            zip(query.group_by, key)
        )
        group_ctx = _ExprContext(graph, computed, key_values)
        passes = all(
            _filter_passes(cond, representative, group_ctx)
            for cond in query.having
        )
        if not passes:
            continue
        # Skip the empty implicit group for pure-aggregate queries only if
        # grouping was requested; an empty ungrouped aggregate still yields
        # one row (e.g. COUNT(*) = 0).
        if not members and query.group_by:
            continue
        representative["__aggregates__"] = computed  # type: ignore[assignment]
        representative["__groupkeys__"] = key_values  # type: ignore[assignment]
        out.append(representative)
    return out


#: One projected solution: ``(row, sort_solution, ctx)``.
_Projected = Tuple[Solution, Solution, _ExprContext]


def _project_rows(query: ast.SelectQuery, solutions: List[Solution],
                  graph: Graph, aggregated: bool) -> List[_Projected]:
    """Project each solution; returns (row, sort_solution, ctx) triples.

    ``sort_solution`` merges the pre-projection bindings with the
    projected names, and ``ctx`` keeps the aggregate/group-key values —
    so ORDER BY can reference non-projected variables, projection
    aliases and aggregates alike (the SPARQL algebra order).
    """
    out = []
    for solution in solutions:
        computed = solution.pop("__aggregates__", None) if aggregated else None
        group_keys = solution.pop("__groupkeys__", None) if aggregated else None
        ctx = _ExprContext(graph, computed, group_keys)
        # (neither the evaluator's own keys nor a blank node's variable)
        visible = {k: v for k, v in solution.items()
                   if not k.startswith(("__", ast.BLANK_PREFIX))}
        if query.is_star:
            row: Solution = dict(visible)
        else:
            row = {}
            for projection in query.projections:
                if projection.expr is None:
                    value = solution.get(projection.var.name)
                    if value is not None:
                        row[projection.var.name] = value
                else:
                    try:
                        row[projection.var.name] = eval_expression(
                            projection.expr, solution, ctx
                        )
                    except ExpressionError:
                        pass
        merged = dict(visible)
        merged.update(row)
        out.append((row, merged, ctx))
    return out


def _apply_modifiers(query: ast.SelectQuery, projected: List[_Projected],
                     graph: Graph) -> List[Solution]:
    """Order (over pre-projection scope), then DISTINCT/OFFSET/LIMIT."""
    if query.order_by:
        def sort_key(entry):
            _, merged, ctx = entry
            key = []
            for cond in query.order_by:
                try:
                    term = eval_expression(cond.expr, merged, ctx)
                    part = term.sort_key()
                except ExpressionError:
                    part = (-1,)
                key.append(_Descending(part) if cond.descending else part)
            return key

        projected = sorted(projected, key=sort_key)
    solutions = [row for row, _, _ in projected]
    if query.distinct:
        seen = set()
        unique: List[Solution] = []
        for solution in solutions:
            fingerprint = frozenset(solution.items())
            if fingerprint not in seen:
                seen.add(fingerprint)
                unique.append(solution)
        solutions = unique
    if query.offset:
        solutions = solutions[query.offset:]
    if query.limit is not None:
        solutions = solutions[: query.limit]
    return solutions


class _Descending:
    """Wrapper inverting comparison order for ORDER BY ... DESC."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return isinstance(other, _Descending) and other.key == self.key


def _eval_select(query: ast.SelectQuery, graph: Graph) -> SelectResult:
    solutions = _eval_group(query.where, [{}], graph)
    aggregated = _needs_aggregation(query)
    if aggregated:
        solutions = _aggregate_groups(query, solutions, graph)
    decorated = _project_rows(query, solutions, graph, aggregated)
    projected = _apply_modifiers(query, decorated, graph)
    if query.is_star:
        names: List[str] = []
        for solution in projected:
            for name in solution:
                if name not in names:
                    names.append(name)
        names.sort()
    else:
        names = [p.var.name for p in query.projections]
    return SelectResult(names, [Row(s) for s in projected])


def _eval_ask(query: ast.AskQuery, graph: Graph) -> bool:
    return bool(_eval_group(query.where, [{}], graph))


def _eval_construct(query: ast.ConstructQuery, graph: Graph) -> Graph:
    solutions = _eval_group(query.where, [{}], graph)
    if query.limit is not None:
        solutions = solutions[: query.limit]
    result = Graph()
    bnode_counter = [0]
    for solution in solutions:
        instantiation: Dict[str, BNode] = {}

        def resolve(slot):
            if isinstance(slot, ast.Var):
                return solution.get(slot.name)
            if isinstance(slot, BNode):
                if slot.label not in instantiation:
                    bnode_counter[0] += 1
                    instantiation[slot.label] = BNode(f"c{bnode_counter[0]}")
                return instantiation[slot.label]
            return slot

        for pattern in query.template:
            s, p, o = resolve(pattern.s), resolve(pattern.p), resolve(pattern.o)
            if s is None or p is None or o is None:
                continue
            if isinstance(s, Literal) or not isinstance(p, IRI):
                continue
            result.add(s, p, o)
    return result


def evaluate(parsed: ast.Query, graph: Graph) -> QueryResult:
    """Evaluate a parsed query AST over a graph."""
    if isinstance(parsed, ast.SelectQuery):
        return _eval_select(parsed, graph)
    if isinstance(parsed, ast.AskQuery):
        return _eval_ask(parsed, graph)
    if isinstance(parsed, ast.ConstructQuery):
        return _eval_construct(parsed, graph)
    raise SparqlEvalError(f"cannot evaluate {type(parsed).__name__}")


def _position_eval_error(exc: SparqlEvalError, text: str) -> SparqlEvalError:
    """Back-fill the source position of an evaluation error raised over
    *text*: when the message names a variable (``?x``), attach the
    line/column of its first occurrence."""
    if exc.line:
        return exc
    import re

    match = re.search(r"\?(\w+)", str(exc))
    if match is None:
        return exc
    from repro.sparql.errors import SparqlParseError
    from repro.sparql.lexer import tokenize

    try:
        tokens = tokenize(text)
    except SparqlParseError:  # pragma: no cover - text already parsed
        return exc
    for token in tokens:
        if token.kind == "VAR" and token.text[1:] == match.group(1):
            return SparqlEvalError(str(exc), token.line, token.column)
    return exc


def query(graph: Graph, text: str) -> QueryResult:
    """Parse and evaluate SPARQL ``text`` over ``graph``.

    Returns a :class:`SelectResult` for SELECT, a :class:`bool` for ASK,
    and a :class:`Graph` for CONSTRUCT.

    ``graph`` is a store or a read-only view of one
    (:class:`repro.rdf.overlay.ExtensionView`).  SELECT and ASK answers
    are cached in the object's ``sparql_cache`` when it has one — a
    store does, a view does not, so two extensions never share an
    answer — stamped with the store's mutation generation: any
    add/remove bumps the generation and silently invalidates every
    prior entry, so a stale answer can never be served.  A cache hit
    returns a fresh :class:`SelectResult` wrapper over the shared
    (treat-as-immutable) rows.  CONSTRUCT answers are mutable graphs
    and are never cached.
    """
    cache = getattr(graph, "sparql_cache", None)
    generation = graph.generation
    if cache is not None:
        cached = cache.get(text, generation, default=None)
        if cached is not None:
            kind, payload = cached
            if kind == "select":
                return SelectResult(payload.variables, list(payload.rows))
            return payload  # ASK boolean
    try:
        result = evaluate(parse_query(text), graph)
    except SparqlEvalError as exc:
        raise _position_eval_error(exc, text) from None
    if cache is None:
        return result
    if isinstance(result, SelectResult):
        # Snapshot the row list: the caller owns `result` and may
        # mutate its list in place, which must not reach the cache.
        snapshot = SelectResult(result.variables, list(result.rows))
        cache.put(text, generation, ("select", snapshot))
    elif isinstance(result, bool):
        cache.put(text, generation, ("ask", result))
    return result
