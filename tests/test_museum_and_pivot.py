"""Tests over the cultural-domain KG: the §3.2.3 example query, the
non-star-schema claim, and entity-type switching (pivot)."""

import pytest

from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.datasets import museum_graph, products_graph
from repro.facets import FacetedAnalyticsSession
from repro.sparql import query as sparql


@pytest.fixture()
def session():
    return FacetedAnalyticsSession(museum_graph())


class TestCulturalDomainQuery:
    def test_el_greco_by_exhibition_country(self, session):
        """'All paintings of El Greco grouped by exhibition country'."""
        session.select_class(EX.Painting)
        session.select_value((EX.creator,), EX.ElGreco)
        session.group_by((EX.exhibitedAt, EX.locatedIn, EX.country))
        session.count_items()
        frame = session.run()
        counts = {row[0].local_name(): row[1].to_python() for row in frame.rows}
        assert counts == {"Spain": 3, "USA": 1}

    def test_paintings_per_movement(self, session):
        """A different path through the non-star schema."""
        session.select_class(EX.Painting)
        session.group_by((EX.creator, EX.movement))
        session.count_items()
        frame = session.run()
        counts = {row[0].local_name(): row[1].to_python() for row in frame.rows}
        assert counts == {
            "Mannerism": 4, "Impressionism": 2, "PostImpressionism": 3,
        }

    def test_average_year_by_born_country(self, session):
        session.select_class(EX.Painting)
        session.group_by((EX.creator, EX.born))
        session.measure((EX.year,), "MIN")
        frame = session.run()
        earliest = {row[0].local_name(): row[1].to_python() for row in frame.rows}
        assert earliest["Greece"] == 1579

    def test_multi_hop_facet_counts(self, session):
        session.select_class(EX.Painting)
        facet = session.facet((EX.exhibitedAt, EX.locatedIn, EX.country))
        counts = {v.label: v.count for v in facet.values}
        # counts at the last path position count cities per country
        assert counts["Spain"] == 2  # Madrid, Toledo


class TestEntitySwitch:
    def test_pivot_paintings_to_painters(self, session):
        session.select_class(EX.Painting)
        session.select_range((EX.year,), ">=", Literal.of(1880))
        state = session.pivot_to((EX.creator,))
        assert {t.local_name() for t in state.extension} == {"VanGogh", "Monet"}

    def test_pivoted_state_is_explorable(self, session):
        session.select_class(EX.Painting)
        session.pivot_to((EX.creator,))
        facets = {f.prop.name for f in session.all_facets()}
        assert "movement" in facets and "born" in facets

    def test_pivot_intention_matches_extension(self, session):
        session.select_class(EX.Painting)
        session.select_value((EX.exhibitedAt,), EX.MoMA)
        session.pivot_to((EX.creator,))
        result = sparql(session.graph, session.state.intention.to_sparql())
        assert {row["x"] for row in result} == set(session.extension)

    def test_pivot_then_restrict_intention(self, session):
        session.select_class(EX.Painting)
        session.pivot_to((EX.creator,))
        session.select_value((EX.born,), EX.Netherlands)
        result = sparql(session.graph, session.state.intention.to_sparql())
        assert {row["x"] for row in result} == set(session.extension)
        assert {t.local_name() for t in session.extension} == {"VanGogh"}

    def test_pivot_then_narrowing_class_intention(self):
        """A class clicked after a pivot belongs to the intention: the
        museum KG types every pivot target alike, so one museum gets a
        second type to narrow to."""
        graph = museum_graph()
        graph.add(EX.Prado, RDF.type, EX.RoyalCollection)
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Painting)
        session.pivot_to((EX.exhibitedAt,))
        session.select_class(EX.RoyalCollection)
        result = sparql(session.graph, session.state.intention.to_sparql())
        assert {row["x"] for row in result} == set(session.extension) == {EX.Prado}

    def test_pivot_then_narrowing_class_on_products(self):
        """Laptop → hardDrive → NVMe: three drives are reached, one is an
        NVMe — the query must answer that one."""
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        assert len(session.pivot_to((EX.hardDrive,))) == 3
        session.select_class(EX.NVMe)
        result = sparql(session.graph, session.state.intention.to_sparql())
        assert {row["x"] for row in result} == set(session.extension)
        assert len(session.extension) == 1

    def test_double_pivot(self, session):
        session.select_class(EX.Painting)
        session.pivot_to((EX.exhibitedAt,))
        session.pivot_to((EX.locatedIn, EX.country))
        labels = {t.local_name() for t in session.extension}
        assert labels == {"Spain", "France", "UK", "USA", "Netherlands"}
        result = sparql(session.graph, session.state.intention.to_sparql())
        assert {row["x"] for row in result} == set(session.extension)

    def test_pivot_multi_step_path(self, session):
        session.select_class(EX.Painting)
        session.select_value((EX.creator,), EX.ElGreco)
        state = session.pivot_to((EX.exhibitedAt, EX.locatedIn))
        assert {t.local_name() for t in state.extension} == {
            "Madrid", "Toledo", "NewYork",
        }

    def test_pivot_back(self, session):
        session.select_class(EX.Painting)
        before = session.extension
        session.pivot_to((EX.creator,))
        session.back()
        assert session.extension == before

    def test_analytics_after_pivot(self, session):
        """Pivot from paintings to museums, then count museums per country."""
        session.select_class(EX.Painting)
        session.select_value((EX.creator,), EX.VanGogh)
        session.pivot_to((EX.exhibitedAt,))
        session.group_by((EX.locatedIn, EX.country))
        session.count_items()
        frame = session.run()
        counts = {row[0].local_name(): row[1].to_python() for row in frame.rows}
        assert counts == {"UK": 1, "USA": 1, "Netherlands": 1}
