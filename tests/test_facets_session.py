"""Tests of the faceted session: the state space of §5.3.2 and the exact
marker structure of Figs 5.4 and 5.5."""

import datetime

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.facets import FacetedSession
from repro.facets.session import EmptyTransitionError
from repro.sparql import query as sparql


def marker_map(markers):
    return {m.label: m.count for m in markers}


class TestInitialState:
    def test_fig_5_4a_top_level_classes(self, session):
        counts = marker_map(session.class_markers())
        assert counts == {"Company": 4, "Location": 5, "Person": 3, "Product": 6}

    def test_fig_5_4b_expanded_hierarchy(self, session):
        markers = {m.label: m for m in session.class_markers(expanded=True)}
        location = markers["Location"]
        assert marker_map(location.children) == {"Continent": 2, "Country": 3}
        product = markers["Product"]
        assert marker_map(product.children) == {"HDType": 3, "Laptop": 3}
        hdtype = {c.label: c for c in product.children}["HDType"]
        assert marker_map(hdtype.children) == {"NVMe": 1, "SSD": 2}

    def test_initial_extension_is_all_individuals(self, session):
        assert len(session.extension) == 18  # 3 laptops + 3 drives + 4 companies
        # + 3 persons + 3 countries + 2 continents (classes excluded)

    def test_start_from_result_set(self, products):
        session = FacetedSession(products, results=[EX.laptop1, EX.laptop2])
        assert set(session.extension) == {EX.laptop1, EX.laptop2}
        assert session.state.intention.seeds is not None


class TestClassTransitions:
    def test_select_class(self, session):
        state = session.select_class(EX.Laptop)
        assert len(state.extension) == 3

    def test_subclass_instances_included(self, session):
        state = session.select_class(EX.Product)
        assert len(state.extension) == 6  # laptops + drives via inference

    def test_empty_class_transition_rejected(self, session):
        session.select_class(EX.Person)
        with pytest.raises(EmptyTransitionError):
            session.select_class(EX.Laptop)

    def test_back_restores_previous_state(self, session):
        session.select_class(EX.Laptop)
        before = session.extension
        session.select_class(EX.Laptop)  # no-op restriction, new state
        session.back()
        assert session.extension == before

    def test_back_at_initial_state_is_safe(self, session):
        initial = session.extension
        session.back()
        assert session.extension == initial


class TestPropertyFacets:
    def test_fig_5_4c_laptop_facets(self, session):
        session.select_class(EX.Laptop)
        facets = {f.prop.name: f for f in session.all_facets()}
        assert {str(v) for v in facets["manufacturer"].values} == {
            "DELL (2)", "Lenovo (1)",
        }
        assert {str(v) for v in facets["USBPorts"].values} == {"2 (2)", "4 (1)"}
        assert {str(v) for v in facets["hardDrive"].values} == {
            "SSD1 (1)", "SSD2 (1)", "NVMe1 (1)",
        }
        assert facets["releaseDate"].count == 3
        assert len(facets["releaseDate"].values) == 3

    def test_fig_5_4d_value_grouping_by_class(self, session):
        session.select_class(EX.Laptop)
        facet = session.facet(EX.hardDrive)
        grouped = session.group_values_by_class(facet)
        names = {
            (cls.local_name() if cls else None): sorted(v.label for v in values)
            for cls, values in grouped.items()
        }
        assert names == {"SSD": ["SSD1", "SSD2"], "NVMe": ["NVMe1"]}

    def test_subproperty_hierarchy(self, session):
        session.select_class(EX.Laptop)
        tree = session.property_hierarchy()
        parents = {ref.prop.local_name() for ref in tree}
        assert "producer" in parents
        producer_children = [
            c.prop.local_name()
            for ref, children in tree.items()
            if ref.prop.local_name() == "producer"
            for c in children
        ]
        assert "manufacturer" in producer_children

    def test_inverse_facets_offered_on_request(self, session):
        session.select_class(EX.Company)
        refs = session.applicable_properties(include_inverse=True)
        assert any(r.inverse and r.prop == EX.manufacturer for r in refs)


class TestPathExpansion:
    def test_fig_5_5b_drive_manufacturer(self, session):
        session.select_class(EX.Laptop)
        facet = session.expand_path((EX.hardDrive,), EX.manufacturer)
        assert {str(v) for v in facet.values} == {
            "Maxtor (2)", "AVDElectronics (1)",
        }

    def test_fig_5_5b_drive_manufacturer_origin(self, session):
        session.select_class(EX.Laptop)
        facet = session.expand_path((EX.hardDrive, EX.manufacturer), EX.origin)
        assert {str(v) for v in facet.values} == {"Singapore (1)", "US (1)"}

    def test_fig_5_5b_laptop_manufacturer_origin(self, session):
        session.select_class(EX.Laptop)
        facet = session.expand_path((EX.manufacturer,), EX.origin)
        assert {str(v) for v in facet.values} == {"US (1)", "China (1)"}

    def test_path_selection_transition(self, session):
        session.select_class(EX.Laptop)
        state = session.select_value(
            (EX.hardDrive, EX.manufacturer, EX.origin), EX.Singapore
        )
        assert set(state.extension) == {EX.laptop1, EX.laptop3}


class TestValueAndRangeSelection:
    def test_select_value(self, session):
        session.select_class(EX.Laptop)
        state = session.select_value((EX.manufacturer,), EX.DELL)
        assert set(state.extension) == {EX.laptop1, EX.laptop2}

    def test_select_values_disjunction(self, session):
        session.select_class(EX.Laptop)
        state = session.select_values((EX.hardDrive,), [EX.SSD1, EX.NVMe1])
        assert set(state.extension) == {EX.laptop1, EX.laptop3}

    def test_select_range_numeric(self, session):
        session.select_class(EX.Laptop)
        state = session.select_range((EX.price,), ">=", Literal.of(900))
        assert set(state.extension) == {EX.laptop1, EX.laptop2}

    def test_select_range_date(self, session):
        session.select_class(EX.Laptop)
        state = session.select_range(
            (EX.releaseDate,), ">=", Literal.of(datetime.date(2021, 9, 1))
        )
        assert set(state.extension) == {EX.laptop2, EX.laptop3}

    def test_select_interval(self, session):
        session.select_class(EX.Laptop)
        state = session.select_interval(
            (EX.price,), Literal.of(850), Literal.of(950)
        )
        assert set(state.extension) == {EX.laptop2}

    def test_interval_rolls_back_on_empty(self, session):
        session.select_class(EX.Laptop)
        depth = len(session.history())
        with pytest.raises(EmptyTransitionError):
            session.select_interval(
                (EX.price,), Literal.of(1), Literal.of(2)
            )
        assert len(session.history()) == depth

    def test_empty_value_selection_rejected(self, session):
        session.select_class(EX.Laptop)
        with pytest.raises(EmptyTransitionError):
            session.select_value((EX.manufacturer,), EX.Maxtor)


class TestIntentionExtensionEquivalence:
    """Every state's intention, compiled to SPARQL (Table 5.1), must
    evaluate to exactly the state's extension."""

    def check(self, session):
        result = sparql(session.graph, session.state.intention.to_sparql())
        assert {row["x"] for row in result} == set(session.extension)

    def test_initial(self, session):
        self.check(session)

    def test_after_class(self, session):
        session.select_class(EX.Laptop)
        self.check(session)

    def test_after_value(self, session):
        session.select_class(EX.Laptop)
        session.select_value((EX.manufacturer,), EX.DELL)
        self.check(session)

    def test_after_path_value(self, session):
        session.select_class(EX.Laptop)
        session.select_value(
            (EX.hardDrive, EX.manufacturer, EX.origin), EX.Singapore
        )
        self.check(session)

    def test_after_range(self, session):
        session.select_class(EX.Laptop)
        session.select_range((EX.price,), ">", Literal.of(850))
        self.check(session)

    def test_after_value_set(self, session):
        session.select_class(EX.Laptop)
        session.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
        self.check(session)

    def test_after_multiple_conditions(self, session):
        session.select_class(EX.Laptop)
        session.select_value((EX.manufacturer,), EX.DELL)
        session.select_range((EX.price,), ">=", Literal.of(950))
        self.check(session)

    def test_seeded_session(self, products):
        session = FacetedSession(products, results=[EX.laptop1, EX.laptop3])
        session.select_value((EX.USBPorts,), Literal.of(2))
        self.check(session)

    def test_describe(self, session):
        session.select_class(EX.Laptop)
        session.select_value((EX.manufacturer,), EX.DELL)
        text = session.state.intention.describe()
        assert "Laptop" in text and "DELL" in text
