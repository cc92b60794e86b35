#!/usr/bin/env python3
"""Uploading statistical data and exploring it in 3D (systems 1a/1b).

The dissertation's 3D-visualization systems show the progress of
COVID-19 by country as an interactive urban area, and let users upload
their own statistics as CSV (headers = attributes, cells = measures).
This example replays that pipeline headlessly:

1. "upload" a CSV of per-country epidemic statistics,
2. analyze it with faceted clicks (group by country, sum the cases),
3. lay the answer out as a 3D city (one multi-storey cube per country)
   and as 2D/3D spirals.

Run with:  python examples/statistical_3d.py
"""

from repro.datasets.csv_import import STAT_ROW, column_property, graph_from_csv
from repro.facets import FacetedAnalyticsSession
from repro.rdf.terms import Literal
from repro.viz import (
    bar_chart,
    chart_series,
    city_layout,
    line_chart,
    pie_chart,
    render_table,
    spiral_layout,
    spiral_layout_3d,
)

CSV = """country,year,cases,deaths
Greece,2020,135000,4800
Greece,2021,1100000,15300
Italy,2020,2110000,74200
Italy,2021,4750000,62100
France,2020,2680000,64800
France,2021,7200000,58300
Portugal,2020,413000,6900
Portugal,2021,1070000,12000
"""


def main() -> None:
    graph = graph_from_csv(CSV)
    print(f"Imported the CSV as {len(graph)} RDF triples\n")

    session = FacetedAnalyticsSession(graph)
    session.select_class(STAT_ROW)

    print("Facets of the uploaded data:")
    for facet in session.all_facets():
        print(f"  {facet}")

    # Keep 2021 and analyze: total cases per country.
    session.select_range((column_property("year"),), "=", Literal.of(2021))
    session.group_by((column_property("country"),))
    session.measure((column_property("cases"),), "SUM")
    frame = session.run()

    print("\n2021 cases by country:")
    print(render_table(frame.columns, frame.rows))

    series = chart_series(frame)[0]
    print()
    print(bar_chart(series, width=30))

    print("\nPie slices:")
    for label, value, share in pie_chart(series):
        print(f"  {label}: {value:,.0f} ({share:.1f}%)")

    values = [(label, value) for label, value in series.points]
    print("\n2D spiral placement (largest at the center):")
    for square in spiral_layout(values):
        print(
            f"  {square.label:<9} side={square.side:6.2f} "
            f"at ({square.x:+8.2f}, {square.y:+8.2f})"
        )

    print("\n3D helix placement:")
    for cube in spiral_layout_3d(values):
        print(
            f"  {cube.label:<9} side={cube.side:6.2f} "
            f"at ({cube.x:+8.2f}, {cube.y:+8.2f}, z={cube.z:4.2f})"
        )

    # Time series per country: years on the x axis.
    session.clear_analytics()
    session.back()  # drop the year filter
    session.group_by((column_property("year"),))
    session.measure((column_property("cases"),), "SUM")
    yearly = session.run()
    line = line_chart(chart_series(yearly)[0])
    print("\nTotal cases per year (line-chart points):")
    for x, y in line:
        print(f"  {int(x)}: {y:,.0f}")

    print("\n3D city of the 2021 answer:")
    for building in city_layout(frame).buildings:
        print(
            f"  {building.label:<9} at ({building.x},{building.y}) "
            f"height={building.height:.2f}"
        )


if __name__ == "__main__":
    main()
