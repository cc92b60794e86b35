"""Tests of the native HIFUN evaluator (group → measure → reduce)."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph
from repro.hifun import (
    Attribute,
    HifunQuery,
    Restriction,
    ResultRestriction,
    evaluate_hifun,
)
from repro.hifun.attributes import Derived
from repro.hifun.evaluator import attribute_values


@pytest.fixture(scope="module")
def g():
    return invoices_graph()


takes = Attribute(EX.takesPlaceAt)
qty = Attribute(EX.inQuantity)
delivers = Attribute(EX.delivers)
brand = Attribute(EX.brand)
has_date = Attribute(EX.hasDate)


class TestAttributeValues:
    def test_direct(self, g):
        assert attribute_values(g, EX.i1, takes) == [EX.branch1]

    def test_composition(self, g):
        assert attribute_values(g, EX.i1, delivers >> brand) == [EX.CocaCola]

    def test_derived(self, g):
        values = attribute_values(g, EX.i1, Derived("MONTH", has_date))
        assert [v.to_python() for v in values] == [1]

    def test_missing_yields_empty(self, g):
        assert attribute_values(g, EX.i1, Attribute(EX.nonexistent)) == []

    def test_inverse(self, g):
        values = attribute_values(g, EX.branch1, Attribute(EX.takesPlaceAt, inverse=True))
        assert set(values) == {EX.i1, EX.i2}

    def test_broken_path_yields_empty(self, g):
        # qty is a literal: following brand after it gives nothing.
        assert attribute_values(g, EX.i1, qty >> brand) == []


class TestEvaluation:
    def test_worked_example_of_section_2_5(self, g):
        """The grouping/measuring/reduction walkthrough: 300/600/600."""
        answer = evaluate_hifun(
            g, HifunQuery(takes, qty, "SUM"), root_class=EX.Invoice
        )
        totals = {k[0].local_name(): v["SUM"].to_python() for k, v in answer.items()}
        assert totals == {"branch1": 300, "branch2": 600, "branch3": 600}

    def test_answer_is_a_function(self, g):
        answer = evaluate_hifun(
            g, HifunQuery(takes, qty, "SUM"), root_class=EX.Invoice
        )
        assert answer[EX.branch1]["SUM"] == Literal.of(300)
        assert (EX.branch2,) in answer
        assert len(answer) == 3

    def test_explicit_items_domain(self, g):
        answer = evaluate_hifun(
            g, HifunQuery(takes, qty, "SUM"), items=[EX.i1, EX.i2, EX.i3]
        )
        assert len(answer) == 2
        assert answer[EX.branch1]["SUM"].to_python() == 300

    def test_grouping_restriction(self, g):
        q = HifunQuery(
            takes, qty, "SUM",
            grouping_restrictions=(Restriction(takes, "=", EX.branch2),),
        )
        answer = evaluate_hifun(g, q, root_class=EX.Invoice)
        assert answer.keys() == [(EX.branch2,)]

    def test_result_restriction(self, g):
        q = HifunQuery(
            takes, qty, "SUM",
            result_restrictions=(ResultRestriction("SUM", ">=", Literal.of(600)),),
        )
        answer = evaluate_hifun(g, q, root_class=EX.Invoice)
        assert len(answer) == 2

    def test_multiple_operations(self, g):
        answer = evaluate_hifun(
            g, HifunQuery(takes, qty, ("MIN", "MAX")), root_class=EX.Invoice
        )
        values = answer[EX.branch3]
        assert values["MIN"].to_python() == 100
        assert values["MAX"].to_python() == 400

    def test_empty_grouping_single_group(self, g):
        answer = evaluate_hifun(
            g, HifunQuery(None, qty, "AVG"), root_class=EX.Invoice
        )
        assert answer.keys() == [()]
        assert answer[()]["AVG"].to_python() == pytest.approx(1500 / 7)

    def test_identity_count(self, g):
        answer = evaluate_hifun(
            g, HifunQuery(takes, None, "COUNT"), root_class=EX.Invoice
        )
        assert answer[EX.branch3]["COUNT"].to_python() == 3

    def test_rows_are_sorted_deterministically(self, g):
        answer = evaluate_hifun(
            g, HifunQuery(takes, qty, "SUM"), root_class=EX.Invoice
        )
        rows = answer.rows()
        assert rows == sorted(rows, key=lambda r: r[0].sort_key())


class TestMultiValuedSemantics:
    @pytest.fixture()
    def multi(self):
        g = Graph()
        g.add(EX.item, RDF.type, EX.Thing)
        g.add(EX.item, EX.tag, EX.red)
        g.add(EX.item, EX.tag, EX.blue)
        g.add(EX.item, EX.score, Literal.of(10))
        g.add(EX.item, EX.score, Literal.of(20))
        return g

    def test_multi_valued_grouping_counts_item_in_each_group(self, multi):
        answer = evaluate_hifun(
            multi, HifunQuery(Attribute(EX.tag), Attribute(EX.score), "SUM"),
            root_class=EX.Thing,
        )
        # join semantics: each tag group sums both scores
        assert answer[EX.red]["SUM"].to_python() == 30
        assert answer[EX.blue]["SUM"].to_python() == 30

    def test_item_without_measure_drops(self, multi):
        multi.add(EX.other, RDF.type, EX.Thing)
        multi.add(EX.other, EX.tag, EX.red)
        answer = evaluate_hifun(
            multi, HifunQuery(Attribute(EX.tag), Attribute(EX.score), "COUNT"),
            root_class=EX.Thing,
        )
        assert answer[EX.red]["COUNT"].to_python() == 2  # only ex:item's scores
