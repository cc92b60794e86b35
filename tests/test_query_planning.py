"""Tests of selectivity-driven join-order planning.

``plan_block`` orders the triple patterns of a basic block by the
statistics the store maintains incrementally: bound slots first, then
the smallest O(1) cardinality estimate.  On a skewed graph (one huge
predicate extent, one tiny one) the plan must probe the rare pattern
first — and the answers must not depend on the textual pattern order.
"""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.sparql import ast, query
from repro.sparql.evaluator import _pattern_selectivity, plan_block


@pytest.fixture()
def skewed():
    """1000 ``label`` edges, 3 ``rare`` edges, 50 typed subjects."""
    g = Graph()
    for i in range(1000):
        g.add(EX[f"s{i % 50}"], EX.label, Literal.of(f"label {i}"))
    for i in range(50):
        g.add(EX[f"s{i}"], RDF.type, EX.Thing)
    for i in range(3):
        g.add(EX[f"s{i}"], EX.rare, EX[f"t{i}"])
    return g


def _pattern(s, p, o):
    return ast.TriplePattern(s, p, o)


X, Y, Z = ast.Var("x"), ast.Var("y"), ast.Var("z")


class TestSelectivityEstimates:
    def test_estimates_use_o1_statistics(self, skewed):
        common = _pattern(X, EX.label, Y)
        rare = _pattern(X, EX.rare, Y)
        assert _pattern_selectivity(common, set(), skewed)[1] == 1000
        assert _pattern_selectivity(rare, set(), skewed)[1] == 3

    def test_bound_po_estimate(self, skewed):
        typed = _pattern(X, RDF.type, EX.Thing)
        assert _pattern_selectivity(typed, set(), skewed)[1] == 50

    def test_bound_slots_dominate(self, skewed):
        # A fully-bound check beats even the rarest unbound pattern.
        ground = _pattern(EX.s0, EX.rare, EX.t0)
        rare = _pattern(X, EX.rare, Y)
        assert _pattern_selectivity(ground, set(), skewed) \
            < _pattern_selectivity(rare, set(), skewed)

    def test_already_bound_vars_count_as_bound(self, skewed):
        p = _pattern(X, EX.label, Y)
        unbound = _pattern_selectivity(p, set(), skewed)
        bound = _pattern_selectivity(p, {"x", "y"}, skewed)
        assert bound[0] < unbound[0]


class TestPlanBlock:
    def test_rarest_pattern_first(self, skewed):
        block = [
            _pattern(X, EX.label, Y),
            _pattern(X, RDF.type, EX.Thing),
            _pattern(X, EX.rare, Z),
        ]
        plan = plan_block(block, set(), skewed)
        # Most bound slots win (the p+o-bound type check), then the
        # rarest extent; the huge label scan comes last.
        assert [tp.p for tp in plan] == [RDF.type, EX.rare, EX.label]

    def test_plan_is_stable_under_input_order(self, skewed):
        block = [
            _pattern(X, EX.label, Y),
            _pattern(X, EX.rare, Z),
        ]
        assert plan_block(block, set(), skewed) \
            == plan_block(list(reversed(block)), set(), skewed)

    def test_bound_vars_shift_the_plan(self, skewed):
        block = [
            _pattern(X, EX.label, Y),
            _pattern(X, EX.rare, Z),
        ]
        # With ?x and ?y already bound, the label pattern is fully bound
        # and jumps ahead of the one-unbound-slot rare pattern.
        plan = plan_block(block, {"x", "y"}, skewed)
        assert plan[0].p == EX.label


class TestOrderIndependence:
    """The same BGP in any textual order returns the same rows."""

    ORDERS = [
        ("?x <{label}> ?y . ?x <{rare}> ?z . ?x a <{thing}> .", "forward"),
        ("?x <{rare}> ?z . ?x a <{thing}> . ?x <{label}> ?y .", "rare first"),
        ("?x a <{thing}> . ?x <{label}> ?y . ?x <{rare}> ?z .", "type first"),
    ]

    @pytest.mark.parametrize("patterns,label", ORDERS, ids=[o[1] for o in ORDERS])
    def test_same_rows_every_order(self, skewed, patterns, label):
        body = patterns.format(
            label=EX.label.value, rare=EX.rare.value, thing=EX.Thing.value)
        rows = {
            (row["x"], row["y"], row["z"])
            for row in query(skewed, "SELECT ?x ?y ?z WHERE { " + body + " }")
        }
        reference = {
            (row["x"], row["y"], row["z"])
            for row in query(
                skewed,
                "SELECT ?x ?y ?z WHERE { " + self.ORDERS[0][0].format(
                    label=EX.label.value, rare=EX.rare.value,
                    thing=EX.Thing.value) + " }")
        }
        assert rows == reference
        assert len(rows) == 3 * 20  # 3 rare subjects × 20 labels each

    def test_planning_matches_unplanned_semantics(self, skewed):
        # Cross-check against a brute-force nested-loop evaluation.
        expected = set()
        for x, _, z in skewed.triples(None, EX.rare, None):
            if (x, RDF.type, EX.Thing) in skewed:
                for y in skewed.objects(x, EX.label):
                    expected.add((x, y, z))
        body = self.ORDERS[0][0].format(
            label=EX.label.value, rare=EX.rare.value, thing=EX.Thing.value)
        rows = {
            (row["x"], row["y"], row["z"])
            for row in query(skewed, "SELECT ?x ?y ?z WHERE { " + body + " }")
        }
        assert rows == expected
