"""Differential testing of BGP evaluation against a brute-force oracle.

The reference evaluator enumerates *every* assignment of the pattern's
variables to graph terms and keeps those under which all triple
patterns are in the graph — hopelessly slow, but obviously correct.
The engine must agree with it on random graphs and random BGPs
(including cartesian products, cyclic joins, variable predicates and
constant slots).
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.sparql import ast
from repro.sparql.evaluator import _eval_group

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


def brute_force(graph: Graph, patterns):
    variables = sorted(
        {
            slot.name
            for pattern in patterns
            for slot in (pattern.s, pattern.p, pattern.o)
            if isinstance(slot, ast.Var)
        }
    )
    universe = sorted(graph.all_terms(), key=lambda t: t.sort_key())
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
    engine = _eval_group(ast.GroupPattern(tuple(patterns)), [{}], graph)
    oracle = brute_force(graph, patterns)
    canonical_engine = sorted(
        tuple(sorted(s.items())) for s in engine
    )
    canonical_oracle = sorted(
        tuple(sorted(s.items())) for s in oracle
    )
    assert canonical_engine == canonical_oracle


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
    engine = _eval_group(ast.GroupPattern(tuple(patterns)), [{}], graph)
    oracle = brute_force(graph, patterns)
    assert sorted(tuple(sorted(s.items())) for s in engine) == sorted(
        tuple(sorted(s.items())) for s in oracle
    )
