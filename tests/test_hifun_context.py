"""The analysis root and HIFUN's prerequisites (§4.1) as the product
handles them: ``evaluate_hifun`` takes the root as a class or an item
set, the attributes applicable to it are those of the faceted session's
listing, and a grouping or measuring attribute must be functional on the
data (``infer_schema``'s ``functional``, read by the checker's H005)."""

from repro.analysis import analyze_hifun, infer_schema
from repro.datasets import invoices_graph, products_graph
from repro.facets import FacetedSession
from repro.hifun import Attribute, HifunQuery, evaluate_hifun
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal

INVOICE_PROPERTIES = (EX.takesPlaceAt, EX.delivers, EX.inQuantity, EX.hasDate)


def root_size(graph, **root):
    """How many items ``evaluate_hifun`` counts in the root ``root``."""
    (count,), = evaluate_hifun(graph, HifunQuery(None, None, "COUNT"),
                               **root).rows()
    return count.to_python()


class TestRootSelection:
    def test_class_root(self):
        assert root_size(invoices_graph(), root_class=EX.Invoice) == 7

    def test_explicit_items(self):
        assert root_size(invoices_graph(), items=[EX.i1, EX.i2]) == 2

    def test_default_root_is_every_subject(self):
        g = invoices_graph()
        assert root_size(g) == len(g.all_subjects())

    def test_single_resource_root(self):
        assert root_size(invoices_graph(), items=[EX.i1]) == 1


def applicable_names(graph, cls):
    session = FacetedSession(graph)
    session.select_class(cls)
    return {ref.prop.local_name() for ref in session.applicable_properties()}


class TestApplicableAttributes:
    def test_invoice_attributes(self):
        assert applicable_names(invoices_graph(), EX.Invoice) == {
            "takesPlaceAt", "delivers", "inQuantity", "hasDate"}

    def test_schema_properties_excluded(self):
        names = applicable_names(products_graph(), EX.Laptop)
        assert "subClassOf" not in names and "type" not in names


class TestPrerequisites:
    def test_functional_dataset_passes(self):
        g = invoices_graph()
        schema = infer_schema(g)
        assert all(schema.signature(p).functional for p in INVOICE_PROPERTIES)
        query = HifunQuery(Attribute(EX.takesPlaceAt),
                           Attribute(EX.inQuantity), "SUM")
        assert not analyze_hifun(g, query, EX.Invoice).has("H005")

    def test_missing_values_detected(self):
        """A missing value leaves a partial function: no H005."""
        g = invoices_graph()
        g.remove(EX.i1, EX.inQuantity, Literal.of(200))
        signature = infer_schema(g).signature(EX.inQuantity)
        assert signature.subjects == len(set(g.subjects(RDF.type, EX.Invoice))) - 1
        assert signature.functional

    def test_multi_valued_detected(self):
        g = invoices_graph()
        g.add(EX.i1, EX.takesPlaceAt, EX.branch2)
        assert not infer_schema(g).signature(EX.takesPlaceAt).functional
        query = HifunQuery(Attribute(EX.takesPlaceAt), None, "COUNT")
        assert analyze_hifun(g, query, EX.Invoice).has("H005")

    def test_report_rendering(self):
        g = invoices_graph()
        g.add(EX.i1, EX.takesPlaceAt, EX.branch2)
        query = HifunQuery(Attribute(EX.takesPlaceAt), None, "COUNT")
        text = str(analyze_hifun(g, query, EX.Invoice))
        assert "H005" in text and "takesPlaceAt" in text
