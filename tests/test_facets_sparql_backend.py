"""Tests of the SPARQL-only facet engine (Tables 5.1/5.2, Fig. 8.3).

The key property: for every model operation, the SPARQL-only engine and
the native (index-based) engine compute identical sets.
"""

import pytest

from repro.rdf.namespace import EX, RDF
from repro.rdf.rdfs import RDFSClosure
from repro.datasets import products_graph
from repro.facets import FacetedSession, SparqlFacetEngine
from repro.facets.model import (
    PropertyRef,
    joins,
    restrict,
    restrict_to_class,
)
from repro.facets.sparql_backend import TEMP


@pytest.fixture(scope="module")
def closed():
    return RDFSClosure(products_graph()).graph()


@pytest.fixture()
def engine(closed):
    return SparqlFacetEngine(closed)


LAPTOPS = frozenset({EX.laptop1, EX.laptop2, EX.laptop3})
manufacturer = (PropertyRef(EX.manufacturer),)
drive_maker = (PropertyRef(EX.hardDrive), PropertyRef(EX.manufacturer))


class TestNotationQueries:
    """The SPARQL text of the Table 5.1 notations."""

    def test_instances_query_text(self):
        text = SparqlFacetEngine.q_instances(EX.Laptop)
        assert "rdf-syntax-ns#type" in text and EX.Laptop.n3() in text

    def test_extension_query_uses_temp(self):
        assert TEMP.n3() in SparqlFacetEngine.q_extension()

    def test_joins_query_walks_path(self):
        text = SparqlFacetEngine.q_joins(drive_maker)
        assert text.count(EX.hardDrive.n3()) == 1
        assert text.count(EX.manufacturer.n3()) == 1
        assert "DISTINCT ?v2" in text

    def test_restrict_query_filters_final_var(self):
        text = SparqlFacetEngine.q_restrict_value(manufacturer, EX.DELL)
        assert f"FILTER(?v1 = {EX.DELL.n3()})" in text

    def test_counts_query_groups(self):
        """Table 5.2's one shape: a direct facet counts the members per
        value, a path the node one step before the value."""
        text = SparqlFacetEngine.q_path_counts(manufacturer)
        assert text.startswith("SELECT ?v1 (COUNT(DISTINCT ?x) AS ?count)")
        assert text.endswith("} GROUP BY ?v1")
        text = SparqlFacetEngine.q_path_counts(drive_maker, grouped=False)
        assert text.startswith("SELECT (COUNT(DISTINCT ?v1) AS ?count)")
        assert "GROUP BY" not in text
        assert SparqlFacetEngine.q_counts("?x ?p ?v .", "?x", ("?p",)) == (
            f"SELECT ?p (COUNT(DISTINCT ?x) AS ?count) WHERE "
            f"{{ ?x {RDF.type.n3()} {TEMP.n3()} . ?x ?p ?v . }} GROUP BY ?p")


class TestAgreementWithNativeEngine:
    def test_instances(self, engine, closed):
        assert engine.instances(EX.Laptop) == set(
            closed.subjects(RDF.type, EX.Laptop)
        )
        assert engine.instances(EX.Product) == set(
            closed.subjects(RDF.type, EX.Product)
        )

    def test_extension_roundtrip(self, engine):
        assert engine.extension_of_temp(LAPTOPS) == set(LAPTOPS)

    def test_joins_single_step(self, engine, closed):
        assert engine.joins(LAPTOPS, manufacturer) == joins(
            closed, LAPTOPS, manufacturer[0]
        )

    def test_joins_path(self, engine, closed):
        native = joins(
            closed, joins(closed, LAPTOPS, drive_maker[0]), drive_maker[1]
        )
        assert engine.joins(LAPTOPS, drive_maker) == native

    def test_restrict_value(self, engine, closed):
        assert engine.restrict(LAPTOPS, manufacturer, EX.DELL) == restrict(
            closed, LAPTOPS, manufacturer[0], EX.DELL
        )

    def test_restrict_class(self, engine, closed):
        drives = {EX.SSD1, EX.SSD2, EX.NVMe1}
        assert engine.restrict_to_class(drives, EX.SSD) == restrict_to_class(
            closed, drives, EX.SSD
        )

    def test_class_counts(self, engine):
        counts = engine.class_counts(LAPTOPS)
        assert counts[EX.Laptop] == 3
        assert counts[EX.Product] == 3
        assert TEMP not in counts

    def test_facet_matches_session(self, engine, closed):
        session = FacetedSession(closed, closed=True)
        session.select_class(EX.Laptop)
        native_facet = session.facet(manufacturer)
        assert engine.facet(session.extension, manufacturer) == native_facet
        # a path counts the node one step before the value, as natively
        path = drive_maker + (PropertyRef(EX.origin),)
        assert engine.facet(session.extension, path) == session.facet(path)

    def test_applicable_properties_match(self, engine, closed):
        """The steps of the engine's listing are the session's
        applicable properties, in the session's order."""
        session = FacetedSession(closed, closed=True)
        session.select_class(EX.Laptop)
        assert [facet.prop for facet in engine.all_facets(
            session.extension)] == session.applicable_properties()


class TestTempHygiene:
    def test_temp_triples_removed_after_each_call(self, engine, closed):
        engine.facet(LAPTOPS, manufacturer)
        engine.joins(LAPTOPS, drive_maker)
        engine.class_counts(LAPTOPS)
        assert next(closed.triples(None, RDF.type, TEMP), None) is None

    def test_preexisting_temp_triples_survive(self, closed):
        closed.add(EX.laptop1, RDF.type, TEMP)
        engine = SparqlFacetEngine(closed)
        engine.joins(LAPTOPS, manufacturer)
        assert (EX.laptop1, RDF.type, TEMP) in closed
        closed.remove(EX.laptop1, RDF.type, TEMP)

    def test_endpoint_history_records_queries(self, closed):
        engine = SparqlFacetEngine(closed)
        engine.class_counts(LAPTOPS)
        assert len(engine.endpoint.history) >= 1
