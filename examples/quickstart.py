#!/usr/bin/env python3
"""Quickstart: analyze an RDF knowledge graph in a few clicks.

Loads the dissertation's running-example products KG (Fig. 1.2/5.3),
opens a faceted-analytics session, and answers *"average price of
laptops grouped by manufacturer"* — first as a plain faceted
exploration, then as an analytic query, showing the generated SPARQL,
the answer table and a chart.

Run with:  python examples/quickstart.py
"""

from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.rdf.namespace import EX
from repro.viz import bar_chart, chart_series, render_table


def main() -> None:
    graph = products_graph()
    print(f"Loaded the products KG: {len(graph)} triples\n")

    session = FacetedAnalyticsSession(graph)

    # --- 1. Faceted exploration: what is in the graph? -----------------
    print("Top-level class facets (with counts):")
    for marker in session.class_markers():
        print(f"  {marker}")

    session.select_class(EX.Laptop)
    print("\nAfter clicking 'Laptop', the property facets are:")
    for facet in session.all_facets():
        values = ", ".join(str(v) for v in facet.values)
        print(f"  {facet}: {values}")

    # --- 2. Analytics: press Σ on 'price', G on 'manufacturer' ---------
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), "AVG")

    print("\nThe HIFUN query synthesized from the button state:")
    print(f"  {session.hifun_query()}")

    translation = session.translation()
    print("\n...translated to SPARQL:")
    print("\n".join("  " + line for line in translation.text.splitlines()))

    frame = session.run()
    print("\nAnswer frame:")
    print(render_table(frame.columns, frame.rows))

    print()
    for series in chart_series(frame):
        print(bar_chart(series))


if __name__ == "__main__":
    main()
