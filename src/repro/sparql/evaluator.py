"""Evaluation of SPARQL ASTs over a :class:`repro.rdf.Graph`.

A solution maps each variable name to a *binding*: the store's
dictionary id for its term (an extension view's virtual ids included),
or — for a term computed during evaluation that the store never saw
(BIND, VALUES, subselect output, an expression's result) — the term
itself.  A computed term is encoded once before it is bound, so equal
bindings mean the same RDF term and every operator joins, groups and
compares bindings.  The evaluator follows the SPARQL algebra closely:

* group patterns evaluate left-to-right; each basic block of triple
  patterns is joined against the current partial solutions over
  dictionary ids (index-backed, most selective first);
* a property path walks id sets; the store is read through
  ``triples_ids`` / ``objects_ids`` / ``count_ids`` alone, so a flat
  store, a sharded one and an extension view serve it alike;
* ``OPTIONAL`` is a left-outer join, ``UNION`` a concatenation,
  ``MINUS`` an anti-join on shared variables, ``FILTER`` is applied to
  the group it appears in;
* aggregation partitions solutions by the GROUP BY key, evaluates each
  aggregate per partition and applies HAVING afterwards; SUM, AVG, MIN
  and MAX read each binding's number once per evaluation;
* expression errors inside FILTER/HAVING make the condition false; in
  projections and BIND they leave the variable unbound.

Terms are decoded through one seam, :meth:`_Context.term`: where an
expression reads a variable, where an aggregate needs the term itself,
and at the query's edge — the projected rows, the CONSTRUCT template.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter, methodcaller
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

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
    numeric_value,
    reduce_numbers,
    wrap_number,
    xsd_cast,
)
from repro.sparql.parser import parse_query
from repro.sparql.results import Row, SelectResult

#: A variable's value inside the evaluator: a dictionary id, or a
#: computed term the store does not know (see the module docstring).
Binding = Union[int, Term]
Solution = Dict[str, Binding]
#: What :func:`evaluate` answers: SELECT rows, an ASK verdict or a
#: CONSTRUCTed graph.
QueryResult = Union[SelectResult, bool, Graph]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class _Context:
    """One :func:`evaluate` call: the store, the seam between bindings
    and terms, and a memo of each binding's number — plus, during
    aggregation, the group's aggregate values and GROUP BY key values.

    The memo lives as long as the call, so it needs no generation
    stamp; :meth:`grouped` shares it with each group's context."""

    __slots__ = ("graph", "_encode", "_decode", "_numbers", "aggregates",
                 "group_keys")

    def __init__(self, graph: Graph):
        self.graph = graph
        self._encode = graph.encode_term
        self._decode = graph.decode_id
        self._numbers: Dict[Binding, object] = {}
        self.aggregates: Optional[Dict[ast.Aggregate, Optional[Term]]] = None
        self.group_keys: Optional[Dict[ast.Expression, Optional[Binding]]] = None

    def grouped(self, aggregates: Optional[Dict[ast.Aggregate, Optional[Term]]],
                group_keys: Optional[Dict[ast.Expression, Optional[Binding]]]
                ) -> "_Context":
        """This evaluation, inside one group of an aggregation — or,
        given ``None`` for both, outside any again."""
        ctx = _Context(self.graph)
        ctx._numbers = self._numbers
        ctx.aggregates, ctx.group_keys = aggregates, group_keys
        return ctx

    def bind(self, term: Term) -> Binding:
        """A computed term as a binding: the store's id when it knows
        the term, else the term itself."""
        ident = self._encode(term)
        return term if ident is None else ident

    def term(self, binding: Binding) -> Term:
        """The decode seam: the term a binding stands for."""
        return self._decode(binding) if type(binding) is int else binding

    def numbers(self, bindings: List[Binding]) -> list:
        """The native number of each binding, ``None`` for a term that
        is no numeric literal — each read once per evaluation."""
        memo = self._numbers
        try:
            return list(map(memo.__getitem__, bindings))
        except KeyError:
            for binding in bindings:
                if binding not in memo:
                    try:
                        memo[binding] = numeric_value(self.term(binding))
                    except ExpressionError:
                        memo[binding] = None
            return list(map(memo.__getitem__, bindings))


def eval_expression(expr: ast.Expression, solution: Solution, ctx: _Context) -> Term:
    """Evaluate an expression to a Term; raises ExpressionError on failure."""
    if ctx.group_keys is not None and not isinstance(expr, ast.Var):
        try:
            if expr in ctx.group_keys:
                value = ctx.group_keys[expr]
                if value is None:
                    raise ExpressionError("group key expression errored")
                return ctx.term(value)
        except TypeError:
            pass  # unhashable node — fall through to normal evaluation
    if isinstance(expr, ast.Var):
        binding = solution.get(expr.name)
        if binding is None:
            raise ExpressionError(f"unbound variable ?{expr.name}")
        return ctx.term(binding)
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
        inner = ctx if ctx.aggregates is None else ctx.grouped(None, None)
        found = bool(_eval_group(expr.pattern, [dict(solution)], inner))
        return make_boolean(found != expr.negated)
    raise SparqlEvalError(f"unknown expression node {type(expr).__name__}")


def _zero() -> Literal:
    return Literal("0", "http://www.w3.org/2001/XMLSchema#integer")


def _eval_binary(expr: ast.Binary, solution: Solution, ctx: _Context) -> Term:
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


def _try_ebv(expr: ast.Expression, solution: Solution, ctx: _Context) -> Optional[bool]:
    try:
        return effective_boolean_value(eval_expression(expr, solution, ctx))
    except ExpressionError:
        return None


def _eval_function(expr: ast.FunctionCall, solution: Solution, ctx: _Context) -> Term:
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


def _eval_in(expr: ast.InExpr, solution: Solution, ctx: _Context) -> Term:
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


def _filter_passes(condition: ast.Expression, solution: Solution, ctx: _Context) -> bool:
    try:
        return effective_boolean_value(eval_expression(condition, solution, ctx))
    except ExpressionError:
        return False


# ---------------------------------------------------------------------------
# Triple pattern matching
# ---------------------------------------------------------------------------
def _match_block(block: List[ast.TriplePattern], solutions: List[Solution],
                 graph: Graph) -> List[Solution]:
    """Join one basic block of triple patterns in id space.

    The solutions are the rows: each pattern reads its slots off them
    as id columns — a constant's id, encoded once, or a variable's
    binding — and writes the ids it matches into them as bindings.  A
    constant the store never saw, or an incoming binding that is a
    computed term, matches nothing.  A pattern that binds a new object
    to a bound subject and predicate reads each subject's row
    (``objects_ids``); any other is one ``triples_ids`` probe per
    solution.  A solution's first match extends it in place and each
    further match a copy.
    """
    ids: Dict[Term, int] = {}
    names = set()
    for tp in block:
        for slot in (tp.s, tp.p, tp.o):
            if isinstance(slot, ast.Var):
                names.add(slot.name)
            elif slot not in ids:
                ids[slot] = graph.encode_term(slot)
                if ids[slot] is None:
                    return []
    bound = set(names)  # bound in every solution
    free = set(names)  # bound in none
    rows: List[Solution] = []
    for solution in solutions:
        for name in names:
            binding = solution.get(name)
            if binding is None:
                bound.discard(name)
            elif type(binding) is int:
                free.discard(name)
            else:
                break
        else:
            rows.append(solution)

    def column(slot: ast.Slot) -> Iterator[Optional[int]]:
        """The id in ``slot`` of each row (``None``: unbound)."""
        if not isinstance(slot, ast.Var):
            return repeat(ids[slot])
        if slot.name in bound:
            return map(itemgetter(slot.name), rows)
        return map(methodcaller("get", slot.name), rows)

    narrow = getattr(graph, "store_for", None)
    block = list(block)
    while block and rows:
        block = plan_block(block, bound, graph)
        tp = block.pop(0)
        slots = (tp.s, tp.p, tp.o)
        fill: List[Tuple[int, str]] = []  # (slot, name) of a new variable
        same: List[Tuple[int, int]] = []  # two slots of one new variable
        for k, slot in enumerate(slots):
            if isinstance(slot, ast.Var) and slot.name not in bound:
                first = slots.index(slot)
                if first < k:
                    same.append((first, k))
                else:
                    fill.append((k, slot.name))
        store = graph if narrow is None else narrow(
            None if isinstance(tp.p, ast.Var) else ids[tp.p],
            None if isinstance(tp.o, ast.Var) else ids[tp.o])
        out: List[Solution] = []
        if fill and fill[0][0] == 2 and fill[0][1] in free:
            # A bound subject and predicate: read the subject's row.
            (_, name), = fill
            reads = map(store.objects_ids, column(tp.s), column(tp.p))
            for row, matches in zip(rows, reads):
                taken = False
                for o in matches:
                    if taken:  # the first match has the row: copy it
                        row = row.copy()
                    row[name] = o
                    out.append(row)
                    taken = True
        else:
            probes = map(store.triples_ids, column(tp.s), column(tp.p),
                         column(tp.o))
            for row, matches in zip(rows, probes):
                taken = False
                for match in matches:
                    if same and any(match[j] != match[k] for j, k in same):
                        continue
                    if taken:  # the first match has the row: copy it
                        row = row.copy()
                    for k, name in fill:
                        row[name] = match[k]
                    out.append(row)
                    taken = True
        rows = out
        for slot in slots:
            if isinstance(slot, ast.Var):
                bound.add(slot.name)
                free.discard(slot.name)
    return rows


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
    as node closures).  Each step reads one row per node — the node's
    ``objects_ids``, or one ``triples_ids`` probe for an inverse step:
    a literal has no SPO row, and an inverse step may start from one."""
    if isinstance(path, ast.PredicatePath):
        pi = graph.encode_term(path.predicate)
        if pi is None:
            return set()
        if path.inverse:
            return {s for node in nodes
                    for s, _, _ in graph.triples_ids(None, pi, node)}
        return set().union(*(graph.objects_ids(node, pi) for node in nodes))
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


def _reached(graph: Graph, start: Binding, path: ast.Path) -> set:
    """The bindings ``path`` reaches from the bound end ``start``, walked
    in ids.  A computed term the store never saw has no edge, so only
    the zero-length walk reaches it: from itself."""
    if type(start) is not int:
        return {start} if _nullable(path) else set()
    return _path_targets(graph, (start,), path)


def _match_path(pattern: ast.PathPattern, solutions: List[Solution],
                ctx: _Context) -> List[Solution]:
    graph = ctx.graph

    def end(slot: ast.Slot) -> Callable[[Solution], Optional[Binding]]:
        if isinstance(slot, ast.Var):
            return lambda solution: solution.get(slot.name)
        constant = ctx.bind(slot)
        return lambda solution: constant

    subject, object_ = end(pattern.s), end(pattern.o)
    out: List[Solution] = []
    nodes: Optional[set] = None
    for solution in solutions:
        s, o = subject(solution), object_(solution)
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
            nodes = {i for t in graph.triples_ids() for i in (t[0], t[2])}
        for start in nodes:
            for target in _path_targets(graph, (start,), pattern.path):
                if pattern.s.name != pattern.o.name:
                    out.append({**solution, pattern.s.name: start,
                                pattern.o.name: target})
                elif target == start:
                    out.append({**solution, pattern.s.name: start})
    return out


# ---------------------------------------------------------------------------
# Group pattern evaluation
# ---------------------------------------------------------------------------
def _eval_group(group: ast.GroupPattern, solutions: List[Solution],
                ctx: _Context) -> List[Solution]:
    """Evaluate a group's children against incoming solutions."""
    filters: List[ast.Filter] = []
    pending_triples: List[ast.TriplePattern] = []

    def flush_triples(current: List[Solution]) -> List[Solution]:
        if not pending_triples:
            return current
        block = list(pending_triples)
        pending_triples.clear()
        return _match_block(block, current, ctx.graph)

    current = solutions
    for child in group.children:
        if isinstance(child, ast.TriplePattern):
            pending_triples.append(child)
            continue
        current = flush_triples(current)
        if isinstance(child, ast.Filter):
            filters.append(child)
        elif isinstance(child, ast.PathPattern):
            current = _match_path(child, current, ctx)
        elif isinstance(child, ast.Optional_):
            current = _eval_optional(child, current, ctx)
        elif isinstance(child, ast.Union):
            left = _eval_group(child.left, [dict(s) for s in current], ctx)
            right = _eval_group(child.right, [dict(s) for s in current], ctx)
            current = left + right
        elif isinstance(child, ast.Minus):
            current = _eval_minus(child, current, ctx)
        elif isinstance(child, ast.Bind):
            for solution in current:
                if child.var.name in solution:
                    raise SparqlEvalError(
                        f"BIND would rebind ?{child.var.name}"
                    )
                value = _value(child.expr, solution, ctx)
                if value is not None:  # an error leaves it unbound
                    solution[child.var.name] = value
        elif isinstance(child, ast.InlineValues):
            current = _eval_values(child, current, ctx)
        elif isinstance(child, ast.GroupPattern):
            current = _eval_group(child, current, ctx)
        elif isinstance(child, ast.SubSelect):
            current = _eval_subselect(child.query, current, ctx)
        else:
            raise SparqlEvalError(f"unknown pattern node {type(child).__name__}")
    current = flush_triples(current)
    for flt in filters:
        current = [s for s in current if _filter_passes(flt.condition, s, ctx)]
    return current


def _eval_optional(node: ast.Optional_, solutions: List[Solution],
                   ctx: _Context) -> List[Solution]:
    out: List[Solution] = []
    for solution in solutions:
        extended = _eval_group(node.pattern, [dict(solution)], ctx)
        if extended:
            out.extend(extended)
        else:
            out.append(solution)
    return out


def _eval_minus(node: ast.Minus, solutions: List[Solution],
                ctx: _Context) -> List[Solution]:
    removed = _eval_group(node.pattern, [{}], ctx)
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


def _eval_values(node: ast.InlineValues, solutions: List[Solution],
                 ctx: _Context) -> List[Solution]:
    rows = [[None if term is None else ctx.bind(term) for term in row]
            for row in node.rows]
    out: List[Solution] = []
    for solution in solutions:
        for row in rows:
            candidate = dict(solution)
            ok = True
            for var, value in zip(node.variables, row):
                if value is None:
                    continue
                bound = candidate.get(var.name)
                if bound is None:
                    candidate[var.name] = value
                elif bound != value:
                    ok = False
                    break
            if ok:
                out.append(candidate)
    return out


def _eval_subselect(query: ast.SelectQuery, solutions: List[Solution],
                    ctx: _Context) -> List[Solution]:
    _, inner_solutions = _select(query, ctx)
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


def _value(expr: ast.Expression, solution: Solution,
           ctx: _Context) -> Optional[Binding]:
    """``expr``'s binding under ``solution``, ``None`` on an error — read
    straight from the solution when ``expr`` is a plain variable."""
    if isinstance(expr, ast.Var):
        return solution.get(expr.name)
    try:
        return ctx.bind(eval_expression(expr, solution, ctx))
    except ExpressionError:
        return None


def _reader(expr: ast.Expression,
            ctx: _Context) -> Callable[[Solution], Optional[Binding]]:
    """:func:`_value` of ``expr`` as a function of the solution."""
    if isinstance(expr, ast.Var):
        return methodcaller("get", expr.name)
    return lambda solution: _value(expr, solution, ctx)


_NUMERIC_AGGREGATES = frozenset({"SUM", "AVG", "MIN", "MAX"})


def _reduce(agg: ast.Aggregate, values: List[Optional[Binding]],
            ctx: _Context) -> Optional[Term]:
    """One aggregate over one group's bindings (``None`` = an error or
    unbound, skipped).  COUNT counts bindings and SUM/AVG/MIN/MAX read
    their numbers; GROUP_CONCAT, SAMPLE and MIN/MAX over a term that is
    no number (ordered by sort key) decode."""
    present = ([v for v in values if v is not None] if None in values
               else values)
    if agg.distinct:  # equal bindings are equal terms
        present = list(dict.fromkeys(present))
    if agg.name == "COUNT":
        return wrap_number(len(present))
    if agg.name in _NUMERIC_AGGREGATES:
        numbers = ctx.numbers(present)
        if None not in numbers:
            return reduce_numbers(agg.name, numbers)
        if agg.name not in ("MIN", "MAX"):
            return None
    return eval_aggregate(agg.name, list(map(ctx.term, present)), False,
                          agg.separator)


def _aggregate_groups(query: ast.SelectQuery, solutions: List[Solution],
                      ctx: _Context) -> List[Solution]:
    groups: Dict[tuple, List[Solution]] = {}
    if query.group_by:
        keys = zip(*[map(_reader(expr, ctx), solutions)
                     for expr in query.group_by])
        for key, solution in zip(keys, solutions):
            members = groups.get(key)
            if members is None:
                groups[key] = [solution]
            else:
                members.append(solution)
    else:
        # Implicit single group (possibly empty).
        groups[()] = list(solutions)

    agg_exprs = _collect_aggregates(
        [p.expr for p in query.projections if p.expr is not None]
        + list(query.having)
        + [c.expr for c in query.order_by]
    )

    out: List[Solution] = []
    for key, members in groups.items():
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
                or all(m.get(k) == v for m in members)
            }
            constant.update(representative)
            representative = constant
        computed: Dict[ast.Aggregate, Optional[Term]] = {}
        read: Dict[ast.Expression, list] = {}  # aggregated expr -> values
        for agg in agg_exprs:
            if agg.expr is None:  # COUNT(*)
                counted = ({frozenset(m.items()) for m in members}
                           if agg.distinct else members)
                computed[agg] = wrap_number(len(counted))
                continue
            values = read.get(agg.expr)
            if values is None:
                values = read[agg.expr] = list(
                    map(_reader(agg.expr, ctx), members))
            computed[agg] = _reduce(agg, values, ctx)
        key_values: Dict[ast.Expression, Optional[Binding]] = dict(
            zip(query.group_by, key)
        )
        group_ctx = ctx.grouped(computed, key_values)
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
        representative["__context__"] = group_ctx  # type: ignore[assignment]
        out.append(representative)
    return out


#: One projected solution: ``(row, sort_solution, ctx)``.
_Projected = Tuple[Solution, Optional[Solution], _Context]


def _project_rows(query: ast.SelectQuery, solutions: List[Solution],
                  ctx: _Context, aggregated: bool) -> List[_Projected]:
    """Project each solution; returns (row, sort_solution, ctx) triples.

    ``sort_solution`` (``None`` without ORDER BY) merges the
    pre-projection bindings with the projected names, and ``ctx`` keeps
    the aggregate/group-key values — so ORDER BY can reference
    non-projected variables, projection aliases and aggregates alike
    (the SPARQL algebra order).
    """
    out = []
    for solution in solutions:
        row_ctx = solution.pop("__context__") if aggregated else ctx
        if query.is_star or query.order_by:
            # (neither the evaluator's own keys nor a blank node's variable)
            visible = {k: v for k, v in solution.items()
                       if not k.startswith(("__", ast.BLANK_PREFIX))}
        if query.is_star:
            row: Solution = dict(visible)
        else:
            row = {}
            for projection in query.projections:
                value = _value(projection.var if projection.expr is None
                               else projection.expr, solution, row_ctx)
                if value is not None:
                    row[projection.var.name] = value
        merged = {**visible, **row} if query.order_by else None
        out.append((row, merged, row_ctx))
    return out


def _apply_modifiers(query: ast.SelectQuery,
                     projected: List[_Projected]) -> List[Solution]:
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
    if query.distinct:  # equal bindings are equal terms
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


def _select(query: ast.SelectQuery,
            ctx: _Context) -> Tuple[List[str], List[Solution]]:
    """The projected names and the answer's solutions, still bindings."""
    solutions = _eval_group(query.where, [{}], ctx)
    aggregated = _needs_aggregation(query)
    if aggregated:
        solutions = _aggregate_groups(query, solutions, ctx)
    projected = _apply_modifiers(
        query, _project_rows(query, solutions, ctx, aggregated))
    if query.is_star:
        names: List[str] = []
        for solution in projected:
            for name in solution:
                if name not in names:
                    names.append(name)
        names.sort()
    else:
        names = [p.var.name for p in query.projections]
    return names, projected


def _eval_select(query: ast.SelectQuery, ctx: _Context) -> SelectResult:
    """The query's edge: each projected binding decoded, once."""
    names, solutions = _select(query, ctx)
    term = ctx.term
    return SelectResult(names, [
        Row({name: term(value) for name, value in solution.items()})
        for solution in solutions])


def _eval_ask(query: ast.AskQuery, ctx: _Context) -> bool:
    return bool(_eval_group(query.where, [{}], ctx))


def _eval_construct(query: ast.ConstructQuery, ctx: _Context) -> Graph:
    solutions = _eval_group(query.where, [{}], ctx)
    if query.limit is not None:
        solutions = solutions[: query.limit]
    result = Graph()
    bnode_counter = [0]
    for solution in solutions:
        instantiation: Dict[str, BNode] = {}

        def resolve(slot):
            if isinstance(slot, ast.Var):
                binding = solution.get(slot.name)
                return None if binding is None else ctx.term(binding)
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
    ctx = _Context(graph)
    if isinstance(parsed, ast.SelectQuery):
        return _eval_select(parsed, ctx)
    if isinstance(parsed, ast.AskQuery):
        return _eval_ask(parsed, ctx)
    if isinstance(parsed, ast.ConstructQuery):
        return _eval_construct(parsed, ctx)
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
