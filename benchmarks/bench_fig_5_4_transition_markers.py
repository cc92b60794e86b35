"""Fig. 5.4 — class-based and property-based transition markers.

Regenerates, from the running-example KG of Fig. 5.3, the four panels:
(a) top-level class markers, (b) the expanded hierarchy, (c) the
property facets of the laptops with value counts, (d) the hardDrive
values grouped by class.  The counts must match the figure exactly.
"""

from repro.datasets import products_graph
from repro.facets import FacetedSession
from repro.rdf.namespace import EX


def build_fig_5_4():
    session = FacetedSession(products_graph())
    panel_a = [str(m) for m in session.class_markers()]

    def tree(markers, indent=0):
        lines = []
        for marker in markers:
            lines.append("  " * indent + str(marker))
            lines.extend(tree(marker.children, indent + 1))
        return lines

    panel_b = tree(session.class_markers(expanded=True))

    session.select_class(EX.Laptop)
    panel_c = []
    for facet in session.all_facets():
        panel_c.append(str(facet))
        panel_c.extend(f"  {value}" for value in facet.values)

    facet = session.facet((EX.hardDrive,))
    panel_d = []
    for cls, values in sorted(
        session.group_values_by_class(facet).items(),
        key=lambda kv: str(kv[0]),
    ):
        name = cls.local_name() if cls else "(untyped)"
        count = sum(v.count for v in values)
        panel_d.append(f"{name} ({count})")
        panel_d.extend(f"  {value}" for value in values)
    return panel_a, panel_b, panel_c, panel_d


def test_fig_5_4(benchmark, artifact_writer):
    a, b, c, d = benchmark(build_fig_5_4)
    text = "Fig 5.4 (a) — top-level class markers:\n"
    text += "".join(f"  {line}\n" for line in a)
    text += "\nFig 5.4 (b) — expanded class markers:\n"
    text += "".join(f"  {line}\n" for line in b)
    text += "\nFig 5.4 (c) — property-based markers (laptops):\n"
    text += "".join(f"  {line}\n" for line in c)
    text += "\nFig 5.4 (d) — hardDrive values grouped by class:\n"
    text += "".join(f"  {line}\n" for line in d)
    artifact_writer("fig_5_4_transition_markers.txt", text)

    # The paper's exact counts.
    assert a == ["Company (4)", "Location (5)", "Person (3)", "Product (6)"]
    assert "  Continent (2)" in b and "  Laptop (3)" in b and "    SSD (2)" in b
    assert "  DELL (2)" in c and "  Lenovo (1)" in c
    assert "  2 (2)" in c and "  4 (1)" in c
    assert "SSD (2)" in d and "NVMe (1)" in d
