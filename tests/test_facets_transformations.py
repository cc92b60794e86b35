"""Tests of the ⚙ transformation button (§5.1 *Special cases*) and the
§5.5 intention-as-restrictions execution path."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import products_graph
from repro.endpoint import LocalEndpoint
from repro.facets import FacetedAnalyticsSession
from repro.facets.analytics import AnalyticsStateError
from repro.hifun import fco_count, fco_degree, fco_values_as_features


@pytest.fixture()
def multi_valued_graph():
    """Products with a multi-valued 'feature' property (violates HIFUN)."""
    g = products_graph()
    g.add(EX.laptop1, EX.feature, EX.Backlit)
    g.add(EX.laptop1, EX.feature, EX.Touchscreen)
    g.add(EX.laptop2, EX.feature, EX.Backlit)
    return g


class TestTransformationButton:
    def test_count_transformation_repairs_multivalued(self, multi_valued_graph):
        session = FacetedAnalyticsSession(multi_valued_graph)
        session.select_class(EX.Laptop)
        refs = session.apply_transformation(fco_count(EX.feature))
        assert len(refs) == 1
        facet = session.facet((refs[0].prop,))
        counts = {v.value.to_python(): v.count for v in facet.values}
        assert counts == {0: 1, 1: 1, 2: 1}  # laptop3 / laptop2 / laptop1

    def test_derived_facet_is_groupable(self, multi_valued_graph):
        session = FacetedAnalyticsSession(multi_valued_graph)
        session.select_class(EX.Laptop)
        (ref,) = session.apply_transformation(fco_count(EX.feature))
        session.group_by((ref.prop,))
        session.count_items()
        frame = session.run()
        assert len(frame) == 3

    def test_fco4_creates_one_facet_per_value(self, multi_valued_graph):
        session = FacetedAnalyticsSession(multi_valued_graph)
        session.select_class(EX.Laptop)
        refs = session.apply_transformation(fco_values_as_features(EX.feature))
        names = {r.prop.local_name() for r in refs}
        assert len(refs) == 2
        assert any("Backlit" in n for n in names)

    def test_transformation_applies_to_extension_only(self, multi_valued_graph):
        session = FacetedAnalyticsSession(multi_valued_graph)
        session.select_class(EX.Laptop)
        session.select_value((EX.manufacturer,), EX.DELL)  # laptop1+2
        (ref,) = session.apply_transformation(fco_degree())
        subjects = set(session.graph.subjects(ref.prop, None))
        assert subjects == {EX.laptop1, EX.laptop2}

    def test_derived_facet_supports_range_filter(self, multi_valued_graph):
        session = FacetedAnalyticsSession(multi_valued_graph)
        session.select_class(EX.Laptop)
        (ref,) = session.apply_transformation(fco_count(EX.feature))
        state = session.select_range((ref.prop,), ">=", Literal.of(1))
        assert set(state.extension) == {EX.laptop1, EX.laptop2}


class TestIntentionAsRestrictions:
    def build(self, graph=None):
        session = FacetedAnalyticsSession(graph or products_graph())
        session.select_class(EX.Laptop)
        session.select_value((EX.manufacturer, EX.origin), EX.US)
        session.select_range((EX.USBPorts,), ">=", Literal.of(2))
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        return session

    def test_restrictions_engine_matches_temp_class_engine(self):
        session = self.build()
        via_temp = session.run(engine="sparql")
        via_restrictions = session.run(engine="restrictions")
        assert [tuple(r) for r in via_temp.rows] == [
            tuple(r) for r in via_restrictions.rows
        ]

    def test_query_carries_the_conditions(self):
        session = self.build()
        query, root = session.hifun_query_with_restrictions()
        assert root == EX.Laptop
        assert len(query.grouping_restrictions) == 2
        comparators = {r.comparator for r in query.grouping_restrictions}
        assert comparators == {"=", ">="}

    def test_translation_is_self_contained(self):
        session = self.build()
        query, root = session.hifun_query_with_restrictions()
        from repro.hifun import translate

        text = translate(query, root_class=root).text
        assert "temp" not in text
        assert EX.origin.n3() in text and "FILTER" in text

    def test_seeded_session_not_expressible(self):
        session = FacetedAnalyticsSession(
            products_graph(), results=[EX.laptop1, EX.laptop2]
        )
        session.measure((EX.price,), "AVG")
        with pytest.raises(AnalyticsStateError):
            session.run(engine="restrictions")

    def test_an_intention_without_a_class_is_not_expressible(self):
        """The §5.5 fold needs its analysis root (§4.1.2).  Without a
        class click its translation's WHERE was empty, and a count of
        items at the start state answered 0 — in process and through an
        endpoint alike — where the other engines answer 18."""
        graph = products_graph()
        session = FacetedAnalyticsSession(graph)
        session.count_items()
        assert session.run("native").rows == [(Literal.of(18),)]
        for endpoint in (None, LocalEndpoint(graph)):
            with pytest.raises(AnalyticsStateError, match="class click"):
                session.run("restrictions", endpoint)

    def test_value_set_condition_not_expressible(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
        session.measure((EX.price,), "AVG")
        with pytest.raises(AnalyticsStateError):
            session.hifun_query_with_restrictions()

    def test_restrictions_engine_with_derived_grouping(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.select_range((EX.price,), ">", Literal.of(850))
        session.group_by((EX.releaseDate,), derived="YEAR")
        session.count_items()
        frame = session.run(engine="restrictions")
        assert frame.rows[0][-1].to_python() == 2
