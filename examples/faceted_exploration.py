#!/usr/bin/env python3
"""A pure faceted-exploration session (Figs 5.4 & 5.5) plus 3D viz.

Walks the exact interaction of §5.3.2 over the running-example KG:
hierarchical class markers, property facets with counts, value grouping
by class, path expansion, a click at the end of a path (Eq. 5.1), and
back-navigation — printing the state intention (the query behind the
clicks) at every step.  Finishes by rendering an analytic answer with
the spiral layout and the 3D city metaphor of §6.3.

Run with:  python examples/faceted_exploration.py
"""

from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession
from repro.rdf.namespace import EX
from repro.viz import city_layout, spiral_layout


def print_class_tree(markers, indent=0):
    for marker in markers:
        print("  " * indent + f"  {marker}")
        print_class_tree(marker.children, indent + 1)


def main() -> None:
    session = FacetedAnalyticsSession(products_graph())

    print("Fig 5.4(a/b) — hierarchical class markers:")
    print_class_tree(session.class_markers(expanded=True))

    session.select_class(EX.Laptop)
    print(f"\nclicked 'Laptop'; intention: {session.state.intention}")

    print("\nFig 5.4(c) — property facets of the laptops:")
    for facet in session.all_facets():
        values = ", ".join(str(v) for v in facet.values)
        print(f"  {facet}: {values}")

    print("\nFig 5.4(d) — hardDrive values grouped by class:")
    facet = session.facet((EX.hardDrive,))
    for cls, values in session.group_values_by_class(facet).items():
        name = cls.local_name() if cls else "(untyped)"
        print(f"  {name}: " + ", ".join(str(v) for v in values))

    print("\nFig 5.5(b) — path expansion along hardDrive:")
    for path in [
        (EX.hardDrive, EX.manufacturer),
        (EX.hardDrive, EX.manufacturer, EX.origin),
    ]:
        expanded = session.facet(path)
        values = ", ".join(str(v) for v in expanded.values)
        print(f"  {expanded}: {values}")

    state = session.select_value(
        (EX.hardDrive, EX.manufacturer, EX.origin), EX.Singapore
    )
    print("\nclicked 'Singapore' at the end of the path (Eq. 5.1):")
    print(f"  extension: {[t.local_name() for t in session.objects()]}")
    print(f"  intention: {state.intention}")

    session.back()
    print(f"\nback() -> {len(session.extension)} objects again")

    # A small analytic finish: laptop count by manufacturer, visualized.
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), "SUM")
    frame = session.run()

    print("\nSpiral layout of the group totals (§6.3 / [116]):")
    values = [
        (row[0].local_name(), float(row[1].to_python())) for row in frame.rows
    ]
    for square in spiral_layout(values):
        print(
            f"  {square.label}: value={square.value:g} side={square.side:.2f} "
            f"at ({square.x:+.2f}, {square.y:+.2f})"
        )

    print("\n3D city layout (one building per group):")
    for building in city_layout(frame).buildings:
        segments = ", ".join(
            f"{s.feature}={s.height:.2f}" for s in building.segments
        )
        print(f"  {building.label} at ({building.x},{building.y}): {segments}")


if __name__ == "__main__":
    main()
