"""Tests of answering roll-ups from materialized answers."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph, make_invoices, museum_graph
from repro.hifun import Attribute, HifunQuery, evaluate_hifun, pair
from repro.hifun.attributes import Derived
from repro.olap import (
    RewriteError,
    derived_mapping,
    path_mapping,
    roll_up_from_answer,
)

takes = Attribute(EX.takesPlaceAt)
qty = Attribute(EX.inQuantity)
has_date = Attribute(EX.hasDate)


class TestDerivedMapping:
    def test_date_to_year(self):
        transform = derived_mapping("YEAR")
        import datetime

        assert transform(Literal.of(datetime.date(2020, 3, 5))).to_python() == 2020

    def test_error_maps_to_none(self):
        transform = derived_mapping("YEAR")
        assert transform(Literal.of("not a date")) is None

    def test_unknown_function_rejected(self):
        with pytest.raises(RewriteError):
            derived_mapping("FROBNICATE")


class TestPathMapping:
    def test_museum_to_country(self):
        g = museum_graph()
        transform = path_mapping(g, [EX.locatedIn, EX.country])
        assert transform(EX.Prado) == EX.Spain

    def test_missing_edge_is_none(self):
        g = museum_graph()
        transform = path_mapping(g, [EX.locatedIn])
        assert transform(EX.Spain) is None  # countries have no locatedIn


class TestRollUpFromAnswer:
    def build_fine(self, graph, ops=("SUM",)):
        """Date-level answer: group by (branch, date)."""
        query = HifunQuery(pair(takes, has_date), qty, ops)
        return evaluate_hifun(graph, query, root_class=EX.Invoice)

    def direct_coarse(self, graph, ops=("SUM",)):
        query = HifunQuery(pair(takes, Derived("YEAR", has_date)), qty, ops)
        return evaluate_hifun(graph, query, root_class=EX.Invoice)

    def test_sum_rollup_matches_direct(self):
        graph = invoices_graph()
        fine = self.build_fine(graph)
        rolled = roll_up_from_answer(fine, 1, derived_mapping("YEAR"))
        assert rolled.rows() == self.direct_coarse(graph).rows()

    def test_min_max_rollup(self):
        graph = invoices_graph()
        fine = self.build_fine(graph, ("MIN", "MAX"))
        rolled = roll_up_from_answer(fine, 1, derived_mapping("YEAR"))
        assert rolled.rows() == self.direct_coarse(graph, ("MIN", "MAX")).rows()

    def test_avg_needs_sum_and_count(self):
        graph = invoices_graph()
        fine = self.build_fine(graph, ("AVG",))
        with pytest.raises(RewriteError):
            roll_up_from_answer(fine, 1, derived_mapping("YEAR"))

    def test_avg_with_sum_and_count_matches_direct(self):
        graph = make_invoices(80, branches=4, seed=6)
        fine = evaluate_hifun(
            graph,
            HifunQuery(pair(takes, has_date), qty, ("AVG", "SUM", "COUNT")),
            root_class=EX.Invoice,
        )
        rolled = roll_up_from_answer(fine, 1, derived_mapping("MONTH"))
        direct = evaluate_hifun(
            graph,
            HifunQuery(
                pair(takes, Derived("MONTH", has_date)),
                qty,
                ("AVG", "SUM", "COUNT"),
            ),
            root_class=EX.Invoice,
        )
        for (k1, v1), (k2, v2) in zip(rolled.items(), direct.items()):
            assert k1 == k2
            assert v1["SUM"] == v2["SUM"] and v1["COUNT"] == v2["COUNT"]
            assert v1["AVG"].to_python() == pytest.approx(v2["AVG"].to_python())

    def test_path_rollup_on_museum(self):
        """Roll paintings-per-museum up to paintings-per-country."""
        graph = museum_graph()
        fine = evaluate_hifun(
            graph,
            HifunQuery(Attribute(EX.exhibitedAt), None, "COUNT"),
            root_class=EX.Painting,
        )
        rolled = roll_up_from_answer(
            fine, 0, path_mapping(graph, [EX.locatedIn, EX.country])
        )
        from repro.hifun import compose

        direct = evaluate_hifun(
            graph,
            HifunQuery(
                compose(Attribute(EX.country), Attribute(EX.locatedIn),
                        Attribute(EX.exhibitedAt)),
                None,
                "COUNT",
            ),
            root_class=EX.Painting,
        )
        assert rolled.rows() == direct.rows()

    def test_unmappable_key_rejected(self):
        graph = invoices_graph()
        fine = self.build_fine(graph)
        with pytest.raises(RewriteError):
            # branches have no YEAR
            roll_up_from_answer(fine, 0, derived_mapping("YEAR"))

    def test_position_out_of_range(self):
        graph = invoices_graph()
        fine = self.build_fine(graph)
        with pytest.raises(RewriteError):
            roll_up_from_answer(fine, 5, derived_mapping("YEAR"))

    def test_larger_dataset_consistency(self):
        graph = make_invoices(150, branches=6, seed=9)
        fine = evaluate_hifun(
            graph,
            HifunQuery(pair(takes, has_date), qty, "SUM"),
            root_class=EX.Invoice,
        )
        rolled = roll_up_from_answer(fine, 1, derived_mapping("MONTH"))
        direct = evaluate_hifun(
            graph,
            HifunQuery(pair(takes, Derived("MONTH", has_date)), qty, "SUM"),
            root_class=EX.Invoice,
        )
        assert rolled.rows() == direct.rows()

    def test_mixed_integer_and_double_values_through_both_callers(self):
        """The one merge, reached by mapping a key component
        (``roll_up_from_answer``) and by removing it
        (``AnswerFrame.drop_grouping_column``): equal results, equal to
        the direct evaluation, and a sum of integers stays an integer
        beside a group whose parts mix ``xsd:integer`` and
        ``xsd:double``."""
        from repro.facets import FacetedAnalyticsSession
        from repro.rdf.graph import Graph
        from repro.rdf.namespace import RDF, XSD

        graph = Graph()
        readings = [("north", "day", 1), ("north", "day", 2), ("north", "night", 3),
                    ("south", "day", 1.5), ("south", "day", 2), ("south", "night", 4),
                    ("west", "day", 7), ("west", "night", 0.25)]
        for index, (station, shift, level) in enumerate(readings):
            item = EX[f"reading{index}"]
            graph.add(item, RDF.type, EX.Reading)
            graph.add(item, EX.station, EX[station])
            graph.add(item, EX.shift, EX[shift])
            graph.add(item, EX.level, Literal.of(level))
        ops = ("MIN", "MAX", "SUM")
        session = FacetedAnalyticsSession(graph)
        session.select_class(EX.Reading)
        session.group_by((EX.station,))
        session.group_by((EX.shift,))
        session.measure((EX.level,), ops)
        frame = session.run("native")
        assert len(frame) == 6

        dropped = frame.drop_grouping_column("shift")
        rolled = roll_up_from_answer(
            evaluate_hifun(graph, frame.query, root_class=EX.Reading), 1,
            lambda shift: EX.anyShift)
        direct = evaluate_hifun(
            graph, HifunQuery(Attribute(EX.station), Attribute(EX.level), ops),
            root_class=EX.Reading).rows()
        assert dropped.rows == direct
        assert [row[:1] + row[2:] for row in rolled.rows()] == direct
        assert {row[1] for row in rolled.rows()} == {EX.anyShift}
        assert [row[1:] for row in direct] == [
            (Literal.of(1), Literal.of(3), Literal.of(6)),
            (Literal.of(1.5), Literal.of(4), Literal.of(7.5)),
            (Literal.of(0.25), Literal.of(7), Literal.of(7.25))]
        assert direct[0][3].datatype == XSD.integer.value
        assert direct[1][3].datatype == XSD.double.value
