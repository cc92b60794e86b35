"""Tests of the analytics extension: the four worked examples of §5.1,
button semantics, and SPARQL/native execution agreement."""

import datetime

import pytest

from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.facets.analytics import AnalyticsStateError, TEMP_CLASS


def by_label(frame):
    """rows as {labels-tuple: numeric values tuple} for easy assertions."""
    out = {}
    for row in frame.rows:
        labels = tuple(
            t.local_name() if hasattr(t, "local_name") and t.__class__.__name__ == "IRI"
            else (t.to_python() if t is not None else None)
            for t in row
        )
        out[labels[:-1] if len(labels) > 1 else labels] = labels[-1]
    return out


class TestExample1_AvgWithoutGroupBy:
    """Average price of 2021 US laptops with SSD and 2 USB ports."""

    def test_answer(self, analytics):
        s = analytics
        s.select_class(EX.Laptop)
        s.select_range(
            (EX.releaseDate,), ">=", Literal.of(datetime.date(2021, 1, 1))
        )
        s.select_value((EX.manufacturer, EX.origin), EX.US)
        s.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
        s.select_value((EX.USBPorts,), Literal.of(2))
        s.measure((EX.price,), "AVG")
        frame = s.run()
        assert frame.columns == ("avg_price",)
        assert frame.rows[0][0].to_python() == 950.0  # (1000+900)/2

    def test_hifun_form_has_empty_grouping(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.measure((EX.price,), "AVG")
        q = analytics.hifun_query()
        assert q.grouping is None
        assert "ε" in str(q)


class TestExample2_CountWithGroupBy:
    """Count of laptops grouped by the manufacturer's country."""

    def test_answer(self, analytics):
        s = analytics
        s.select_class(EX.Laptop)
        s.group_by((EX.manufacturer, EX.origin))
        s.count_items()
        frame = s.run()
        assert by_label(frame) == {("US",): 2, ("China",): 1}


class TestExample3_RangeValues:
    """... with 2 *or more* USB ports (range selection)."""

    def test_answer(self, analytics):
        s = analytics
        s.select_class(EX.Laptop)
        s.select_range((EX.USBPorts,), ">=", Literal.of(2))
        s.group_by((EX.manufacturer, EX.origin))
        s.count_items()
        frame = s.run()
        assert by_label(frame) == {("US",): 2, ("China",): 1}


class TestExample4_HavingViaReload:
    """Average price by company and year, restricted to avg > threshold,
    via loading the answer frame as a new dataset (§5.3.3)."""

    def test_nested_query(self, analytics):
        s = analytics
        s.select_class(EX.Laptop)
        s.group_by((EX.manufacturer,))
        s.group_by((EX.releaseDate,), derived="YEAR")
        s.measure((EX.price,), "AVG")
        frame = s.run()
        assert len(frame) == 2  # (DELL, 2021), (Lenovo, 2021)

        nested = frame.explore()
        nested.select_range(
            (frame.column_property("avg_price"),), ">", Literal.of(850)
        )
        rows = nested.objects()
        assert len(rows) == 1  # only the DELL group (avg 950) survives

    def test_fig_5_2_af_as_facets(self, analytics):
        s = analytics
        s.select_class(EX.Laptop)
        s.group_by((EX.manufacturer,))
        s.measure((EX.price,), "AVG")
        frame = s.run()
        nested = frame.explore()
        labels = {f.prop.name for f in nested.all_facets()}
        assert labels == {"manufacturer", "avg_price"}


class TestAnswerFrame:
    def test_to_graph_shape(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.group_by((EX.manufacturer,))
        analytics.measure((EX.price,), ("AVG", "SUM"))
        frame = analytics.run()
        g = frame.to_graph()
        rows = set(g.subjects(RDF.type, None)) - set(g.subjects(RDF.type, RDF.Property))
        # n rows × (k columns + 1 typing triple)
        assert len(frame) == 2
        data_triples = [
            t for t in g
            if t[1] != RDF.type
        ]
        assert len(data_triples) == len(frame) * len(frame.columns)

    def test_column_accessor(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.group_by((EX.manufacturer,))
        analytics.measure((EX.price,), "MAX")
        frame = analytics.run()
        assert len(frame.column("max_price")) == 2


class TestButtonSemantics:
    def test_group_by_toggle(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.group_by((EX.manufacturer,))
        analytics.group_by((EX.manufacturer,))  # toggle off
        assert analytics.group_specs == []

    def test_multiple_groups_accumulate(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.group_by((EX.manufacturer,))
        analytics.group_by((EX.USBPorts,))
        assert len(analytics.group_specs) == 2

    def test_run_without_measure_raises(self, analytics):
        analytics.select_class(EX.Laptop)
        with pytest.raises(AnalyticsStateError):
            analytics.run()

    def test_clear_analytics(self, analytics):
        analytics.group_by((EX.manufacturer,))
        analytics.measure((EX.price,), "AVG")
        analytics.clear_analytics()
        assert analytics.group_specs == []
        assert analytics.measure_spec is None

    def test_with_count_adds_column(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.group_by((EX.manufacturer,))
        analytics.measure((EX.price,), "AVG")
        analytics.with_count()
        frame = analytics.run()
        assert "count_items" in frame.columns

    def test_derive_button(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.derive((EX.releaseDate,), "year")
        analytics.count_items()
        frame = analytics.run()
        assert frame.rows[0][0].to_python() == 2021


class TestExecutionEngines:
    def test_sparql_and_native_agree(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.group_by((EX.manufacturer,))
        analytics.measure((EX.price,), ("AVG", "SUM", "MIN", "MAX"))
        sparql_frame = analytics.run(engine="sparql")
        native_frame = analytics.run(engine="native")
        assert [tuple(r) for r in sparql_frame.rows] == [
            tuple(r) for r in native_frame.rows
        ]

    def test_unknown_engine_rejected(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.measure((EX.price,), "AVG")
        with pytest.raises(ValueError):
            analytics.run(engine="quantum")

    def test_temp_class_cleaned_up(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.measure((EX.price,), "AVG")
        analytics.run()
        assert next(analytics.graph.triples(None, RDF.type, TEMP_CLASS), None) is None

    def test_translation_uses_temp_class(self, analytics):
        analytics.select_class(EX.Laptop)
        analytics.measure((EX.price,), "AVG")
        assert TEMP_CLASS.n3() in analytics.translation().text

    def test_fig_6_2_query(self, analytics):
        """Average, sum and max price of laptops with 2–4 USB ports,
        grouped by manufacturer and the origin of the manufacturer."""
        s = analytics
        s.select_class(EX.Laptop)
        s.select_interval((EX.USBPorts,), Literal.of(2), Literal.of(4))
        s.group_by((EX.manufacturer,))
        s.group_by((EX.manufacturer, EX.origin))
        s.measure((EX.price,), ("AVG", "SUM", "MAX"))
        frame = s.run()
        assert frame.columns == (
            "manufacturer", "manufacturer_origin",
            "avg_price", "sum_price", "max_price",
        )
        values = by_label(frame)
        assert values[("DELL", "US", 950.0, 1900)] == 1000
        assert values[("Lenovo", "China", 820.0, 820)] == 820
