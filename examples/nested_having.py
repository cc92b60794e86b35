#!/usr/bin/env python3
"""Nested analytic queries via answer-frame reload (Example 4, §5.3.3).

*"Average price of laptops grouped by company and year, only for groups
with average price above a threshold."*  The restriction on the *answer*
(a HAVING clause) is formulated by loading the answer frame as a new RDF
dataset and restricting it with ordinary faceted clicks — and the
nesting can continue to any depth.

Run with:  python examples/nested_having.py
"""

from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.viz import render_table


def main() -> None:
    session = FacetedAnalyticsSession(products_graph())
    session.select_class(EX.Laptop)

    # G on manufacturer, G on year(releaseDate), Σ avg(price).
    session.group_by((EX.manufacturer,))
    session.group_by((EX.releaseDate,), derived="YEAR")
    session.measure((EX.price,), "AVG")
    frame = session.run()

    print("Inner analytic query:", session.hifun_query())
    print(render_table(frame.columns, frame.rows))

    # "Explore with FS": the answer becomes an ordinary RDF dataset ...
    nested = frame.explore()
    print("\nLoaded the answer as a new dataset (§5.3.3); its facets:")
    for facet in nested.all_facets():
        values = ", ".join(str(v) for v in facet.values)
        print(f"  {facet}: {values}")

    # ... and a range filter on avg_price is a HAVING on the original data.
    threshold = Literal.of(850)
    nested.select_range((frame.column_property("avg_price"),), ">", threshold)
    print(f"\nGroups with avg price > {threshold}:")
    answer_graph = nested.graph
    for row_id in nested.objects():
        values = {
            p.local_name(): o
            for _, p, o in answer_graph.triples(row_id, None, None)
            if p.local_name() != "type"
        }
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(values.items()))
        print(f"  {rendered}")

    # Nest once more: count the surviving groups per manufacturer.
    nested.group_by((frame.column_property("manufacturer"),))
    nested.count_items()
    frame2 = nested.run()
    print("\nSecond-level analytics over the restricted answer:")
    print(render_table(frame2.columns, frame2.rows))


if __name__ == "__main__":
    main()
