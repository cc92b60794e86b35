"""Robustness tests of sessions: odd inputs, small graphs, API leniency."""

import pytest

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.facets.model import PropertyRef
from repro.facets.session import EmptyTransitionError


class TestPathInputLeniency:
    """Paths may be given as an IRI, a PropertyRef, or tuples of either."""

    def test_bare_iri(self, session):
        session.select_class(EX.Laptop)
        facet = session.facet(EX.manufacturer)
        assert facet.count == 3

    def test_bare_property_ref(self, session):
        session.select_class(EX.Laptop)
        facet = session.facet(PropertyRef(EX.manufacturer))
        assert facet.count == 3

    def test_mixed_tuple(self, session):
        session.select_class(EX.Laptop)
        facet = session.facet((PropertyRef(EX.manufacturer), EX.origin))
        assert {v.label for v in facet.values} == {"US", "China"}

    def test_invalid_step_rejected(self, session):
        with pytest.raises(TypeError):
            session.facet(("not-a-property",))


class TestSmallGraphs:
    def test_single_triple_graph(self):
        g = Graph()
        g.add(EX.a, RDF.type, EX.Thing)
        session = FacetedSession(g)
        assert set(session.extension) == {EX.a}
        markers = session.class_markers()
        assert [str(m) for m in markers] == ["Thing (1)"]

    def test_untyped_graph_has_empty_initial_state(self):
        g = Graph()
        g.add(EX.a, EX.p, EX.b)
        session = FacetedSession(g)
        # no typed individuals: the initial extension is empty, and the
        # session offers nothing rather than crashing
        assert len(session.extension) == 0
        assert session.class_markers() == []
        assert session.all_facets() == []

    def test_literal_heavy_graph(self):
        g = Graph()
        g.add(EX.a, RDF.type, EX.Thing)
        for i in range(5):
            g.add(EX.a, EX.score, Literal.of(i))
        session = FacetedSession(g)
        facet = session.facet(EX.score)
        assert facet.count == 1          # one object carries the property
        assert len(facet.values) == 5    # five values

    def test_facet_of_absent_property(self, session):
        session.select_class(EX.Laptop)
        facet = session.facet(EX.nonexistent)
        assert facet.count == 0 and facet.values == ()


class TestAnalyticsRobustness:
    def test_group_concat_measure(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.group_by((EX.manufacturer,))
        session.measure((EX.hardDrive,), "GROUP_CONCAT")
        frame = session.run()
        dell_row = next(r for r in frame.rows if r[0] == EX.DELL)
        assert "SSD" in dell_row[1].lexical

    def test_sample_measure(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.measure((EX.price,), "SAMPLE")
        frame = session.run()
        assert frame.rows[0][0].to_python() in (820, 900, 1000)

    def test_rerun_is_stable(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        first = session.run()
        second = session.run()
        assert [tuple(r) for r in first.rows] == [tuple(r) for r in second.rows]

    def test_run_after_back_reflects_new_state(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.measure((EX.price,), "AVG")
        session.select_value((EX.manufacturer,), EX.Lenovo)
        narrowed = session.run()
        session.back()
        widened = session.run()
        assert narrowed.rows[0][0].to_python() == 820.0
        assert widened.rows[0][0].to_python() == pytest.approx(2720 / 3)

    def test_measure_replaces_previous(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.measure((EX.price,), "AVG")
        session.measure((EX.USBPorts,), "MAX")
        frame = session.run()
        assert frame.columns == ("max_USBPorts",)

    def test_empty_transition_preserves_button_state(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        with pytest.raises(EmptyTransitionError):
            session.select_range((EX.price,), ">", Literal.of(10**9))
        frame = session.run()  # still runnable on the surviving state
        assert len(frame) == 2
