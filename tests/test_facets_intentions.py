"""Unit tests of intentions and their SPARQL compilation (§5.5)."""

import pytest

from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.facets.intentions import (
    ClassCondition,
    Intention,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
    condition_of,
)
from repro.facets.model import PropertyRef
from repro.rdf.graph import Graph
from repro.sparql import query as sparql

manufacturer = (PropertyRef(EX.manufacturer),)
maker_origin = (PropertyRef(EX.manufacturer), PropertyRef(EX.origin))


class TestConstruction:
    def test_with_class_sets_root_first(self):
        intent = Intention().with_class(EX.Laptop)
        assert intent.root_class == EX.Laptop
        assert intent.conditions == ()

    def test_second_class_becomes_condition(self):
        intent = Intention().with_class(EX.Laptop).with_class(EX.Product)
        assert intent.root_class == EX.Laptop
        assert intent.conditions == (ClassCondition(EX.Product),)

    def test_with_condition_appends(self):
        cond = PathValueCondition(manufacturer, EX.DELL)
        intent = Intention().with_condition(cond)
        assert intent.conditions == (cond,)

    def test_immutability(self):
        base = Intention()
        extended = base.with_class(EX.Laptop)
        assert base.root_class is None and extended.root_class == EX.Laptop


class TestSparqlCompilation:
    def test_default_initial_state(self):
        text = Intention().to_sparql()
        assert "NOT IN" in text and "rdf-schema#Class" in text

    def test_root_class_pattern(self):
        text = Intention(root_class=EX.Laptop).to_sparql()
        assert EX.Laptop.n3() in text
        assert "SELECT DISTINCT ?x" in text

    def test_seeds_become_values(self):
        intent = Intention(seeds=(EX.laptop1, EX.laptop2))
        text = intent.to_sparql()
        assert "VALUES ?x" in text
        assert EX.laptop1.n3() in text

    def test_path_value_condition_chains(self):
        intent = Intention(root_class=EX.Laptop).with_condition(
            PathValueCondition(maker_origin, EX.US)
        )
        text = intent.to_sparql()
        assert f"?x {EX.manufacturer.n3()} ?v1 ." in text
        assert f"?v1 {EX.origin.n3()} {EX.US.n3()} ." in text

    def test_range_condition_filter(self):
        intent = Intention(root_class=EX.Laptop).with_condition(
            PathRangeCondition((PropertyRef(EX.price),), ">=", Literal.of(900))
        )
        text = intent.to_sparql()
        assert "FILTER((?v1 >=" in text

    def test_value_set_condition_values_clause(self):
        intent = Intention(root_class=EX.Laptop).with_condition(
            PathValueSetCondition(
                (PropertyRef(EX.hardDrive),), (EX.SSD1, EX.SSD2)
            )
        )
        text = intent.to_sparql()
        assert "VALUES ?v1" in text

    def test_inverse_step_reverses_pattern(self):
        intent = Intention(root_class=EX.Company).with_condition(
            PathValueCondition(
                (PropertyRef(EX.manufacturer, inverse=True),), EX.laptop1
            )
        )
        text = intent.to_sparql()
        assert f"{EX.laptop1.n3()} {EX.manufacturer.n3()} ?x ." in text

    def test_fresh_variables_do_not_collide(self):
        intent = (
            Intention(root_class=EX.Laptop)
            .with_condition(PathValueCondition(maker_origin, EX.US))
            .with_condition(
                PathRangeCondition((PropertyRef(EX.price),), ">", Literal.of(1))
            )
        )
        text = intent.to_sparql()
        # The value condition consumes ?v1 (its tail is the constant),
        # the range condition gets a distinct ?v2.
        assert f"?x {EX.price.n3()} ?v2 ." in text
        assert "FILTER((?v2 >" in text

    def test_pivot_without_class_keeps_its_text(self):
        """No default "every typed individual" clause after a pivot."""
        text = Intention(root_class=EX.Laptop).with_pivot(manufacturer).to_sparql()
        assert text == (
            "SELECT DISTINCT ?x\n"
            "WHERE {\n"
            "  { SELECT DISTINCT ?v1\n"
            "    WHERE {\n"
            f"      ?v1 {RDF.type.n3()} {EX.Laptop.n3()} .\n"
            "    } }\n"
            f"  ?v1 {EX.manufacturer.n3()} ?x .\n"
            "}"
        )
        assert "?anytype" not in text

    def test_class_after_pivot_is_typed_outside_the_subselect(self):
        intent = (
            Intention(root_class=EX.Laptop)
            .with_pivot((PropertyRef(EX.hardDrive),))
            .with_class(EX.NVMe)
        )
        assert intent.to_sparql().splitlines()[-3:] == [
            f"  ?v1 {EX.hardDrive.n3()} ?x .",
            f"  ?x {RDF.type.n3()} {EX.NVMe.n3()} .",
            "}",
        ]

    def test_compiled_intention_evaluates(self):
        from repro.rdf.rdfs import RDFSClosure

        graph = RDFSClosure(products_graph()).graph()
        intent = Intention(root_class=EX.Laptop).with_condition(
            PathValueCondition(maker_origin, EX.US)
        )
        result = sparql(graph, intent.to_sparql())
        assert {row["x"] for row in result} == {EX.laptop1, EX.laptop2}


class TestDescriptions:
    def test_describe_lists_everything(self):
        intent = (
            Intention(root_class=EX.Laptop)
            .with_condition(PathValueCondition(manufacturer, EX.DELL))
            .with_condition(
                PathRangeCondition((PropertyRef(EX.price),), ">", Literal.of(1))
            )
        )
        text = intent.describe()
        assert "Laptop" in text and "DELL" in text and ">" in text

    def test_empty_describe(self):
        assert Intention().describe() == "all objects"

    def test_condition_str_forms(self):
        assert "manufacturer = DELL" in str(
            PathValueCondition(manufacturer, EX.DELL)
        )
        assert "in {2 values}" in str(
            PathValueSetCondition(manufacturer, (EX.DELL, EX.Lenovo))
        )


class TestRestrictionCorrespondence:
    """§5.5 (``restriction()``) and §7.1 (``condition_of``) are one
    correspondence, read in two directions."""

    def test_round_trip_of_iri_clicks_and_ranges(self):
        for condition in (
            PathValueCondition(maker_origin, EX.US),
            PathRangeCondition(manufacturer, "!=", EX.DELL),
            PathRangeCondition((PropertyRef(EX.price),), ">=", Literal.of(900)),
            PathRangeCondition(maker_origin + (PropertyRef(EX.size, True),),
                               "=", Literal.of("big")),
        ):
            restriction = condition.restriction()
            assert restriction.attribute.steps() == condition.path
            assert condition_of(restriction) == condition

    def test_class_and_value_set_clicks_have_no_hifun_form(self):
        assert ClassCondition(EX.Laptop).restriction() is None
        assert PathValueSetCondition(
            manufacturer, (EX.DELL, EX.Lenovo)).restriction() is None

    def test_a_literal_click_comes_back_as_the_equality_range(self):
        click = PathValueCondition((PropertyRef(EX.p),), Literal.of(2))
        assert condition_of(click.restriction()) == PathRangeCondition(
            click.path, "=", Literal.of(2))

    def test_a_click_matches_the_term_a_restriction_compares_the_value(self):
        """Why a condition is not a ``Restriction``: on ``2`` / ``2.0`` /
        ``3`` the click on ``2`` keeps one item, ``= 2`` two."""
        things = (EX.a, EX.b, EX.c)
        graph = Graph(
            [(n, RDF.type, EX.Thing) for n in things]
            + list(zip(things, 3 * [EX.p],
                       (Literal.of(2), Literal.of(2.0), Literal.of(3)))))
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Thing)
        assert session.select_value(EX.p, Literal.of(2)).extension == {EX.a}
        session.count_items()
        for engine in ("native", "row", "sparql"):
            assert session.run(engine).rows == [(Literal.of(1),)]
        assert session.run("restrictions").rows == [(Literal.of(2),)]

    def test_an_unknown_comparator_is_no_condition(self):
        with pytest.raises(ValueError, match="unknown comparator '=>'"):
            PathRangeCondition(manufacturer, "=>", Literal.of(1))
