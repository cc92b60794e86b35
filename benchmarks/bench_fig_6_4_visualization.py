"""Figs 6.2–6.5 — the demonstration query and its 2D/3D visualization.

Reproduces the Chapter 6 demonstration end to end: the Fig. 6.2 query
(*"Average, sum and max price of laptops that have 2 to 4 USB ports,
grouped by manufacturer and the origin of the manufacturer"*), its
tabular answer (Fig. 6.3a), the answer loaded as a new dataset
(Fig. 6.3b), and the 2D chart / 3D city / spiral renderings
(Figs 6.4/6.5) as layout data.
"""


from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.viz import (
    bar_chart,
    chart_series,
    city_layout,
    render_table,
    spiral_layout,
)


def run_demonstration():
    session = FacetedAnalyticsSession(products_graph())
    session.select_class(EX.Laptop)
    session.select_interval((EX.USBPorts,), Literal.of(2), Literal.of(4))
    session.group_by((EX.manufacturer,))
    session.group_by((EX.manufacturer, EX.origin))
    session.measure((EX.price,), ("AVG", "SUM", "MAX"))
    frame = session.run()
    nested = frame.explore()
    return session, frame, nested


def test_fig_6_2_to_6_5(benchmark, artifact_writer):
    session, frame, nested = benchmark.pedantic(
        run_demonstration, rounds=1, iterations=1
    )
    text = "Fig 6.2 — the demonstration query (HIFUN + SPARQL):\n"
    text += f"  {frame.query}\n\n"
    text += "\n".join(
        "  " + line for line in session.translation().text.splitlines()
    )
    text += "\n\nFig 6.3(a) — tabular answer:\n"
    text += render_table(frame.columns, frame.rows)
    text += "\nFig 6.3(b) — answer loaded as a new dataset; its facets:\n"
    for facet in nested.all_facets():
        text += f"  {facet}\n"
    text += "\nFig 6.4 — 2D charts:\n"
    for series in chart_series(frame):
        text += bar_chart(series, width=24) + "\n"
    text += "\nFig 6.5 — 3D city (building heights per group):\n"
    for building in city_layout(frame).buildings:
        segments = ", ".join(
            f"{s.feature}={s.height:.2f}" for s in building.segments
        )
        text += f"  {building.label} @({building.x},{building.y}): {segments}\n"
    series = chart_series(frame)[1]  # sum_price
    text += "\nSpiral layout of sum_price ([116]):\n"
    for square in spiral_layout(list(series.points)):
        text += (
            f"  {square.label}: side={square.side:.2f} "
            f"at ({square.x:+.2f},{square.y:+.2f})\n"
        )
    artifact_writer("fig_6_2_to_6_5_demonstration.txt", text)

    assert frame.columns == (
        "manufacturer", "manufacturer_origin",
        "avg_price", "sum_price", "max_price",
    )
    assert len(frame) == 2
    assert len(city_layout(frame)) == 2
    assert {f.prop.name for f in nested.all_facets()} == {
        "manufacturer", "manufacturer_origin",
        "avg_price", "sum_price", "max_price",
    }
