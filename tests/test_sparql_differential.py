"""Differential testing of BGP evaluation against a brute-force oracle.

The reference evaluator enumerates *every* assignment of the pattern's
variables to graph terms and keeps those under which all triple
patterns are in the graph — hopelessly slow, but obviously correct.
The engine must agree with it on random graphs and random BGPs
(including cartesian products, cyclic joins, variable predicates and
constant slots).  Above the BGPs, a Term-level reference evaluates
OPTIONAL, UNION, MINUS, FILTER, BIND, VALUES and GROUP BY with the
aggregates over lists of dicts, and the engine must answer its rows on
drawn queries over drawn graphs.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.overlay import ExtensionView
from repro.rdf.terms import Literal
from repro.sparql import ast, evaluate
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import (aggregate, arithmetic, compare,
                                    effective_boolean_value, make_boolean,
                                    wrap_number)

_terms = st.sampled_from(
    [EX.term(f"n{i}") for i in range(4)] + [Literal.of(i) for i in range(3)]
)
_subjects = st.sampled_from([EX.term(f"n{i}") for i in range(4)])
_predicates = st.sampled_from([EX.term(p) for p in ("p", "q")])
_graphs = st.lists(
    st.tuples(_subjects, _predicates, _terms), max_size=14
).map(Graph)

_vars = ["a", "b", "c"]
_slots = st.one_of(
    st.sampled_from(_vars).map(ast.Var),
    _subjects,
)
_object_slots = st.one_of(st.sampled_from(_vars).map(ast.Var), _terms)
# A variable predicate reaches the object-keyed (`?s ?p <o>`), the
# subject-keyed (`<s> ?p ?o`) and the unbound shapes; it is its own
# `?p` or one of the subject/object variables.
_predicate_slots = st.one_of(
    st.sampled_from(_vars + ["p"]).map(ast.Var), _predicates)
_patterns = st.lists(
    st.tuples(_slots, _predicate_slots, _object_slots).map(
        lambda t: ast.TriplePattern(*t)
    ),
    min_size=1,
    max_size=3,
)


def engine_solutions(graph, patterns):
    """``SELECT * { patterns }`` through the public evaluator, each row
    canonicalised."""
    result = evaluate(ast.SelectQuery(
        (), where=ast.GroupPattern(tuple(patterns))), graph)
    return sorted(tuple(sorted(row.items())) for row in result)


def brute_force(graph: Graph, patterns):
    variables = sorted(
        {
            slot.name
            for pattern in patterns
            for slot in (pattern.s, pattern.p, pattern.o)
            if isinstance(slot, ast.Var)
        }
    )
    universe = sorted(
        graph.all_subjects() | graph.all_predicates() | graph.all_objects(),
        key=lambda t: t.sort_key())
    solutions = []
    for assignment in itertools.product(universe, repeat=len(variables)):
        binding = dict(zip(variables, assignment))

        def resolve(slot):
            return binding[slot.name] if isinstance(slot, ast.Var) else slot

        if all(
            (resolve(p.s), resolve(p.p), resolve(p.o)) in graph
            for p in patterns
        ):
            solutions.append(binding)
    return solutions


@settings(max_examples=50, deadline=None)
@given(graph=_graphs, patterns=_patterns)
def test_bgp_matches_brute_force(graph, patterns):
    if not len(graph):
        return
    oracle = brute_force(graph, patterns)
    assert engine_solutions(graph, patterns) == sorted(
        tuple(sorted(s.items())) for s in oracle)


@settings(max_examples=30, deadline=None)
@given(graph=_graphs)
def test_cyclic_join_against_oracle(graph):
    """?a p ?b . ?b p ?c . ?c p ?a — a cycle the greedy planner must not
    mishandle."""
    patterns = [
        ast.TriplePattern(ast.Var("a"), EX.p, ast.Var("b")),
        ast.TriplePattern(ast.Var("b"), EX.p, ast.Var("c")),
        ast.TriplePattern(ast.Var("c"), EX.p, ast.Var("a")),
    ]
    oracle = brute_force(graph, patterns)
    assert engine_solutions(graph, patterns) == sorted(
        tuple(sorted(s.items())) for s in oracle)


# -- the same blocks over an extension view ---------------------------------
_TEMP = EX.temp
_UNSEEN = EX.neverInterned
_members = st.sets(st.sampled_from(
    [EX.term(f"n{i}") for i in range(4)] + [Literal.of(1), _UNSEEN]))
_view_predicate_slots = st.one_of(_predicate_slots, st.just(RDF.type))
_view_object_slots = st.one_of(_object_slots, st.just(_TEMP))
_view_patterns = st.lists(
    st.tuples(st.one_of(_slots, st.just(_UNSEEN)), _view_predicate_slots,
              _view_object_slots).map(lambda t: ast.TriplePattern(*t)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs, members=_members, patterns=_view_patterns)
def test_bgp_over_an_extension_view_matches_brute_force(graph, members,
                                                        patterns):
    """The view's virtual ids — ``:temp``, never interned by the store,
    and a member no triple mentions — join like real ones; a literal
    member is no subject.  Members the store knows go in as ids, the
    others as Terms; the oracle runs on the materialized copy."""
    assert graph.encode_term(_TEMP) is None
    known = {m for m in members if graph.encode_term(m) is not None}
    view = ExtensionView(graph, _TEMP, members - known,
                         ids=graph.encode_terms(known))
    real = graph.copy()
    real.add_all((m, RDF.type, _TEMP) for m in members
                 if not isinstance(m, Literal))
    oracle = brute_force(real, patterns)
    assert engine_solutions(view, patterns) == sorted(
        tuple(sorted(s.items())) for s in oracle)


# -- the operators against a Term-level reference ---------------------------
# The reference evaluates a group's children left to right over the
# incoming solutions (dicts of Terms) by the SPARQL algebra: a triple
# pattern is matched against a scan of the graph, OPTIONAL is a
# left-outer join, UNION a concatenation, MINUS an anti-join on shared
# variables, BIND an extension, VALUES a join with its table, FILTER
# applies at the end of the group, and GROUP BY partitions the solutions
# for ``functions.aggregate``.  Tier-1 runs the property derandomized;
# ``make fuzz`` runs it long.
_FUZZING = settings.get_current_profile_name() == "fuzz"
_OP_NODES = [EX.term(f"n{i}") for i in range(3)]
#: Integers only among the numbers, so that SUM does not depend on the
#: order solutions arrive in.
_OP_TERMS = _OP_NODES + [Literal.of(i) for i in range(3)]
_op_graphs = st.lists(st.tuples(
    st.sampled_from(_OP_NODES), st.sampled_from([EX.p, EX.q]),
    st.sampled_from(_OP_TERMS)), max_size=10).map(Graph)
_op_vars = st.sampled_from(["a", "b", "c"]).map(ast.Var)
_op_patterns = st.builds(
    ast.TriplePattern, st.one_of(_op_vars, st.sampled_from(_OP_NODES)),
    st.sampled_from([EX.p, EX.q]), st.one_of(_op_vars,
                                             st.sampled_from(_OP_TERMS)))
_op_bgps = st.lists(_op_patterns, min_size=1, max_size=2).map(
    lambda patterns: ast.GroupPattern(tuple(patterns)))
_constants = st.sampled_from(_OP_TERMS).map(ast.TermExpr)
_any_vars = st.sampled_from(["a", "b", "c", "w"]).map(ast.Var)
_conditions = st.recursive(
    st.one_of(
        st.builds(ast.Binary, st.sampled_from(["=", "!=", "<", ">"]),
                  _any_vars, st.one_of(_any_vars, _constants)),
        _any_vars.map(lambda v: ast.FunctionCall("BOUND", (v,))),
        st.builds(ast.ExistsExpr, _op_bgps, st.booleans())),
    lambda inner: st.one_of(
        inner.map(lambda c: ast.Unary("!", c)),
        st.builds(ast.Binary, st.sampled_from(["&&", "||"]), inner, inner)),
    max_leaves=3)
_bind_exprs = st.one_of(
    _op_vars, _constants,
    _op_vars.map(lambda v: ast.Binary("+", v, ast.TermExpr(Literal.of(1)))))
_values = st.builds(
    lambda names, rows: ast.InlineValues(
        tuple(map(ast.Var, names)), tuple(row[:len(names)] for row in rows)),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=2,
             unique=True),
    st.lists(st.lists(st.one_of(st.none(), st.sampled_from(_OP_TERMS)),
                      min_size=2, max_size=2), min_size=1, max_size=3))
_children = st.one_of(
    _op_patterns, _op_patterns,
    _op_bgps.map(ast.Optional_),
    st.builds(ast.Union, _op_bgps, _op_bgps),
    _op_bgps.map(ast.Minus),
    _conditions.map(ast.Filter),
    _bind_exprs.map(lambda e: ast.Bind(e, ast.Var("w"))),
    _values,
    # a nested group, whose filters may read variables only the outer
    # pattern binds, with an OPTIONAL (its own FILTER too) or a MINUS
    # of its own: it is evaluated on its own, then joined
    st.builds(lambda bgp, inner, condition: ast.GroupPattern(
        bgp.children + inner + (ast.Filter(condition),)),
        _op_bgps, st.one_of(
            st.just(()),
            _op_bgps.map(lambda g: (ast.Optional_(g),)),
            st.builds(lambda g, c: (ast.Optional_(ast.GroupPattern(
                g.children + (ast.Filter(c),))),), _op_bgps, _conditions),
            _op_bgps.map(lambda g: (ast.Minus(g),))),
        _conditions))


def _one_bind(children):
    """Keep the first BIND only: ``?w`` is bound once, and by nothing
    else."""
    binds = [c for c in children if isinstance(c, ast.Bind)]
    return ast.GroupPattern(tuple(
        c for c in children if not isinstance(c, ast.Bind) or c is binds[0]))


_op_wheres = st.lists(_children, min_size=1, max_size=5).map(_one_bind)
_aggregates = st.one_of(
    st.booleans().map(lambda distinct: ast.Aggregate("COUNT", None, distinct)),
    st.builds(ast.Aggregate,
              st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "SAMPLE"]),
              _any_vars, st.booleans()))


@st.composite
def _op_queries(draw):
    """``SELECT *`` over a drawn group, or GROUP BY some of its variables
    with drawn aggregates."""
    where = draw(_op_wheres)
    if draw(st.booleans()):
        return ast.SelectQuery((), where=where)
    keys = tuple(map(ast.Var, draw(st.lists(
        st.sampled_from(["a", "b", "c"]), max_size=2, unique=True))))
    aggregates = draw(st.lists(_aggregates, min_size=1, max_size=3))
    return ast.SelectQuery(
        tuple(ast.Projection(key) for key in keys) + tuple(
            ast.Projection(ast.Var(f"g{n}"), agg)
            for n, agg in enumerate(aggregates)),
        where=where, group_by=keys)


def _term_of(expr, solution, triples):
    """A BIND or FILTER operand: a Term, or ExpressionError."""
    if isinstance(expr, ast.Var):
        if expr.name not in solution:
            raise ExpressionError(f"unbound ?{expr.name}")
        return solution[expr.name]
    if isinstance(expr, ast.TermExpr):
        return expr.term
    if isinstance(expr, ast.Unary):  # "!"
        return make_boolean(not effective_boolean_value(
            _term_of(expr.operand, solution, triples)))
    if isinstance(expr, ast.ExistsExpr):
        found = _reference_group(expr.pattern, [solution], triples)
        return make_boolean(bool(found) != expr.negated)
    if isinstance(expr, ast.FunctionCall):  # BOUND
        return make_boolean(expr.args[0].name in solution)
    if expr.op in ("&&", "||"):
        sides = []
        for side in (expr.left, expr.right):
            try:
                sides.append(effective_boolean_value(
                    _term_of(side, solution, triples)))
            except ExpressionError:
                sides.append(None)
        decisive = expr.op == "||"
        if decisive in sides:
            return make_boolean(decisive)
        if None in sides:
            raise ExpressionError("error in a logical operand")
        return make_boolean(not decisive)
    left = _term_of(expr.left, solution, triples)
    right = _term_of(expr.right, solution, triples)
    if expr.op == "+":
        return arithmetic("+", left, right)
    return make_boolean(compare(expr.op, left, right))


def _matches(pattern, solution, triples):
    """The extensions of ``solution`` matching one triple pattern."""
    out = []
    for triple in triples:
        extended = dict(solution)
        for slot, term in zip((pattern.s, pattern.p, pattern.o), triple):
            if not isinstance(slot, ast.Var):
                if slot != term:
                    break
            elif extended.setdefault(slot.name, term) != term:
                break
        else:
            out.append(extended)
    return out


def _compatible(one, other):
    return all(one[name] == value for name, value in other.items()
               if name in one)


def _reference_group(group, solutions, triples):
    filters = []
    for child in group.children:
        if isinstance(child, ast.TriplePattern):
            solutions = [e for s in solutions
                         for e in _matches(child, s, triples)]
        elif isinstance(child, ast.Optional_):
            solutions = [e for s in solutions for e in (
                _reference_group(child.pattern, [s], triples) or [s])]
        elif isinstance(child, (ast.GroupPattern, ast.Union)):
            # evaluated on its own, then joined
            inner = ([child] if isinstance(child, ast.GroupPattern)
                     else [child.left, child.right])
            found = [r for branch in inner
                     for r in _reference_group(branch, [{}], triples)]
            solutions = [{**s, **r} for s in solutions for r in found
                         if _compatible(s, r)]
        elif isinstance(child, ast.SubSelect):  # on its own, then joined
            found = _reference(triples, child.query)
            solutions = [{**s, **r} for s in solutions for r in found
                         if _compatible(s, r)]
        elif isinstance(child, ast.Minus):
            removed = _reference_group(child.pattern, [{}], triples)
            solutions = [s for s in solutions if not any(
                set(s) & set(r) and _compatible(s, r) for r in removed)]
        elif isinstance(child, ast.Bind):
            extended = []
            for s in solutions:
                s = dict(s)
                try:
                    s[child.var.name] = _term_of(child.expr, s, triples)
                except ExpressionError:
                    pass
                extended.append(s)
            solutions = extended
        elif isinstance(child, ast.InlineValues):
            table = [{v.name: t for v, t in zip(child.variables, row)
                      if t is not None} for row in child.rows]
            solutions = [{**s, **row} for s in solutions for row in table
                         if _compatible(s, row)]
        else:
            filters.append(child.condition)
    for condition in filters:
        kept = []
        for s in solutions:
            try:
                if effective_boolean_value(_term_of(condition, s, triples)):
                    kept.append(s)
            except ExpressionError:
                pass
        solutions = kept
    return solutions


def _reference(graph, query):
    """The query's rows, each a dict of Terms."""
    solutions = _reference_group(query.where, [{}], list(graph))
    if not query.projections:
        return solutions
    keys = [p.var.name for p in query.projections if p.expr is None]
    groups = {} if keys else {(): []}
    for s in solutions:
        groups.setdefault(tuple(s.get(k) for k in keys), []).append(s)
    rows = []
    for key, members in groups.items():
        row = {k: v for k, v in zip(keys, key) if v is not None}
        for p in query.projections[len(keys):]:
            agg = p.expr
            counted = ({frozenset(m.items()) for m in members} if agg.distinct
                       else members)
            value = (wrap_number(len(counted)) if agg.expr is None
                     else aggregate(agg.name, [m.get(agg.expr.name)
                                               for m in members],
                                    agg.distinct, " "))
            if value is not None:
                row[p.var.name] = value
        rows.append(row)
    return rows


def _canonical(rows):
    return sorted((tuple(sorted(row.items())) for row in rows), key=repr)


@settings(derandomize=not _FUZZING, deadline=None)
@given(graph=_op_graphs, query=_op_queries())
@example(  # EXISTS reads the row it tests: n1 has a q, n0 has none
    graph=Graph([(EX.n0, EX.p, EX.n1), (EX.n1, EX.q, EX.n2)]),
    query=ast.SelectQuery((), where=ast.GroupPattern((
        ast.TriplePattern(ast.Var("a"), EX.p, ast.Var("b")),
        ast.Filter(ast.ExistsExpr(ast.GroupPattern((ast.TriplePattern(
            ast.Var("a"), EX.q, ast.Var("c")),))))))))
@example(  # a nested group's FILTER does not see ?b, bound outside it
    graph=Graph([(EX.n0, EX.p, Literal.of(1)), (EX.n0, EX.q, EX.n1)]),
    query=ast.SelectQuery((), where=ast.GroupPattern((
        ast.TriplePattern(ast.Var("a"), EX.p, ast.Var("b")),
        ast.GroupPattern((
            ast.TriplePattern(ast.Var("a"), EX.q, ast.Var("c")),
            ast.Filter(ast.Unary("!", ast.FunctionCall(
                "BOUND", (ast.Var("b"),))))))))))
@example(  # an OPTIONAL inside a nested group does not see ?b either
    graph=Graph([(EX.n0, EX.p, Literal.of(1)), (EX.n0, EX.q, EX.n1),
                 (EX.n1, EX.r, EX.n2)]),
    query=ast.SelectQuery((), where=ast.GroupPattern((
        ast.TriplePattern(ast.Var("a"), EX.p, ast.Var("b")),
        ast.GroupPattern((
            ast.TriplePattern(ast.Var("a"), EX.q, ast.Var("c")),
            ast.Optional_(ast.GroupPattern((ast.TriplePattern(
                ast.Var("a"), EX.q, ast.Var("b")),)))))))))
@example(  # a SELECT * sub-select's FILTER reads ?w, which nothing in it
    # binds: ?w is not in its scope, and the BIND after it binds ?w
    graph=Graph([(EX.n0, EX.p, Literal.of(1)), (EX.n1, EX.p, EX.n2)]),
    query=ast.SelectQuery((), where=ast.GroupPattern((
        ast.SubSelect(ast.SelectQuery((), where=ast.GroupPattern((
            ast.TriplePattern(ast.Var("a"), EX.p, ast.Var("b")),
            ast.Filter(ast.Unary("!", ast.FunctionCall(
                "BOUND", (ast.Var("w"),)))))))),
        ast.Bind(ast.Var("b"), ast.Var("w"))))))
def test_operators_match_the_reference(graph, query):
    """OPTIONAL, UNION, MINUS, FILTER (EXISTS too), BIND, VALUES, nested
    groups (an OPTIONAL or MINUS inside too), GROUP BY and COUNT (of ``*`` too, DISTINCT or not) / SUM /
    MIN / MAX / SAMPLE answer the reference's rows; so does a sub-select
    on the one input checked by hand."""
    engine = [dict(row.items()) for row in evaluate(query, graph)]
    assert _canonical(engine) == _canonical(_reference(graph, query))
