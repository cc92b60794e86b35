"""Tests of the visualization layer: tables, charts, spiral, city."""

import pytest

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.facets import FacetedAnalyticsSession
from repro.viz import (
    bar_chart,
    chart_series,
    city_layout,
    render_table,
    spiral_layout,
)
from repro.viz.table import term_label


@pytest.fixture()
def frame(products):
    session = FacetedAnalyticsSession(products)
    session.select_class(EX.Laptop)
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), ("AVG", "SUM"))
    return session.run()


class TestTable:
    def test_term_labels(self):
        assert term_label(EX.DELL) == "DELL"
        assert term_label(Literal.of(5)) == "5"
        assert term_label(None) == ""

    def test_render_alignment(self, frame):
        text = render_table(frame.columns, frame.rows)
        lines = text.splitlines()
        assert len(lines) == 2 + len(frame.rows)
        assert all(len(line) == len(lines[0]) for line in lines[:2])
        assert "DELL" in text and "avg_price" in text

    def test_max_rows_truncation(self, frame):
        text = render_table(frame.columns, frame.rows, max_rows=1)
        assert "more rows" in text


class TestChartSeries:
    def test_numeric_columns_detected(self, frame):
        series = chart_series(frame)
        assert [s.name for s in series] == ["avg_price", "sum_price"]

    def test_labels_from_non_numeric_columns(self, frame):
        series = chart_series(frame)
        assert set(series[0].labels()) == {"DELL", "Lenovo"}

    def test_values(self, frame):
        series = {s.name: s for s in chart_series(frame)}
        assert set(series["sum_price"].values()) == {1900.0, 820.0}

    def test_explicit_columns(self, frame):
        series = chart_series(
            frame, label_columns=["manufacturer"], value_columns=["avg_price"]
        )
        assert len(series) == 1

    def test_numeric_grouping_column_is_a_label(self, products):
        """What a column is comes from the frame's query, not from the
        look of its cells: the port counts label the points."""
        session = FacetedAnalyticsSession(products)
        session.select_class(EX.Laptop)
        session.group_by((EX.USBPorts,))
        session.measure((EX.price,), "AVG")
        (series,) = chart_series(session.run())
        assert series.name == "avg_price"
        assert series.points == (("2", 950.0), ("4", 820.0))

    def test_years_are_the_x_axis_of_a_line_chart(self):
        """The yearly query of ``examples/statistical_3d.py``."""
        from repro.datasets.csv_import import (
            STAT_ROW,
            column_property,
            graph_from_csv,
        )
        from repro.viz import line_chart

        session = FacetedAnalyticsSession(graph_from_csv(
            "country,year,cases\nGreece,2020,135000\nGreece,2021,1100000\n"
            "Italy,2020,2110000\nItaly,2021,4750000\n"))
        session.select_class(STAT_ROW)
        session.group_by((column_property("year"),))
        session.measure((column_property("cases"),), "SUM")
        yearly = session.run()
        assert line_chart(chart_series(yearly)[0]) == [
            (2020.0, 2245000.0), (2021.0, 5850000.0)]
        assert city_layout(yearly).features == ("sum_cases",)

    def test_bar_chart_renders(self, frame):
        series = chart_series(frame)[0]
        text = bar_chart(series, width=10)
        assert "DELL" in text and "█" in text

    def test_bar_chart_empty(self):
        from repro.viz.charts import ChartSeries

        assert "empty" in bar_chart(ChartSeries("x", ()))


class TestSpiral:
    def test_biggest_at_center(self):
        layout = spiral_layout([("small", 1), ("big", 100), ("mid", 10)])
        assert layout.squares[0].label == "big"
        assert layout.squares[0].x == layout.squares[0].y == 0.0

    def test_radii_monotone_nondecreasing(self):
        values = [(f"v{i}", float(100 - i)) for i in range(30)]
        layout = spiral_layout(values)
        radii = [s.radius for s in layout.squares]
        assert all(radii[i] <= radii[i + 1] + 1e-9 for i in range(len(radii) - 1))

    def test_areas_respect_relative_sizes(self):
        layout = spiral_layout([("a", 100), ("b", 25)])
        a, b = layout.squares
        assert a.side**2 == pytest.approx(4 * b.side**2)

    def test_no_pairwise_overlaps(self):
        values = [(f"v{i}", float((i % 7 + 1) * 10)) for i in range(40)]
        layout = spiral_layout(values)
        squares = layout.squares
        for i, first in enumerate(squares):
            for second in squares[i + 1 :]:
                assert not first.overlaps(second), (first, second)

    def test_bounded_drawing_space(self):
        layout = spiral_layout([(f"v{i}", 1.0) for i in range(50)])
        squares = layout.squares
        width = (max(s.x + s.side / 2 for s in squares)
                 - min(s.x - s.side / 2 for s in squares))
        height = (max(s.y + s.side / 2 for s in squares)
                  - min(s.y - s.side / 2 for s in squares))
        assert width < 60 and height < 60

    def test_empty_and_zero_values(self):
        assert len(spiral_layout([])) == 0
        layout = spiral_layout([("zero", 0.0), ("one", 1.0)])
        assert len(layout) == 2

    def test_spacing_validation(self):
        with pytest.raises(ValueError):
            spiral_layout([("a", 1)], spacing=0.9)


class TestCity:
    def test_buildings_and_segments(self, frame):
        city = city_layout(frame)
        assert len(city) == 2
        assert city.features == ("avg_price", "sum_price")
        dell = city.building("DELL")
        assert dell is not None
        assert len(dell.segments) == 2

    def test_heights_proportional(self, frame):
        city = city_layout(frame, max_height=10.0)
        dell = city.building("DELL")
        lenovo = city.building("Lenovo")
        assert dell.height == pytest.approx(10.0)
        assert lenovo.height < dell.height
        ratio = (820.0 + 820.0) / (950.0 + 1900.0)
        assert lenovo.height / dell.height == pytest.approx(ratio)

    def test_grid_positions_distinct(self, frame):
        city = city_layout(frame)
        positions = {(b.x, b.y) for b in city.buildings}
        assert len(positions) == len(city.buildings)

    def test_requires_numeric_column(self, products):
        session = FacetedAnalyticsSession(products)
        session.select_class(EX.Laptop)
        session.group_by((EX.manufacturer,))
        session.measure((EX.hardDrive,), "SAMPLE")
        frame = session.run()
        with pytest.raises(ValueError):
            city_layout(frame)
