"""Tests of analysis contexts and HIFUN prerequisites (§4.1)."""

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.datasets import invoices_graph, products_graph
from repro.hifun import AnalysisContext, Attribute


class TestRootSelection:
    def test_class_root(self):
        ctx = AnalysisContext(invoices_graph(), EX.Invoice)
        assert len(ctx) == 7
        assert ctx.root_class == EX.Invoice

    def test_explicit_items(self):
        ctx = AnalysisContext(invoices_graph(), [EX.i1, EX.i2])
        assert len(ctx) == 2
        assert ctx.root_class is None

    def test_default_root_is_typed_subjects(self):
        ctx = AnalysisContext(invoices_graph())
        assert EX.i1 in ctx.items
        assert EX.branch1 in ctx.items

    def test_single_resource_root(self):
        # A non-class IRI becomes a singleton root.
        ctx = AnalysisContext(invoices_graph(), EX.i1)
        assert ctx.items == {EX.i1}


class TestApplicableAttributes:
    def test_invoice_attributes(self):
        ctx = AnalysisContext(invoices_graph(), EX.Invoice)
        names = {a.prop.local_name() for a in ctx.applicable_attributes()}
        assert names == {"takesPlaceAt", "delivers", "inQuantity", "hasDate"}

    def test_schema_properties_excluded(self):
        ctx = AnalysisContext(products_graph(), EX.Laptop)
        names = {a.prop.local_name() for a in ctx.applicable_attributes()}
        assert "subClassOf" not in names and "type" not in names

    def test_with_attributes_preserves_items(self):
        ctx = AnalysisContext(invoices_graph(), EX.Invoice)
        attrs = ctx.applicable_attributes()[:2]
        ctx2 = ctx.with_attributes(attrs)
        assert ctx2.items == ctx.items
        assert ctx2.attributes == tuple(attrs)


class TestPrerequisites:
    def test_functional_dataset_passes(self):
        ctx = AnalysisContext(invoices_graph(), EX.Invoice)
        report = ctx.check_prerequisites()
        assert report.satisfied
        assert not report.offending()

    def test_missing_values_detected(self):
        g = invoices_graph()
        g.remove(EX.i1, EX.inQuantity, Literal.of(200))
        ctx = AnalysisContext(g, EX.Invoice)
        report = ctx.check_prerequisites([Attribute(EX.inQuantity)])
        audit = report.audits[0]
        assert audit.missing == 1
        assert audit.multi_valued == 0
        assert not audit.is_functional
        assert audit.is_effectively_functional

    def test_multi_valued_detected(self):
        g = invoices_graph()
        g.add(EX.i1, EX.takesPlaceAt, EX.branch2)
        ctx = AnalysisContext(g, EX.Invoice)
        report = ctx.check_prerequisites([Attribute(EX.takesPlaceAt)])
        audit = report.audits[0]
        assert audit.multi_valued == 1
        assert not audit.is_effectively_functional

    def test_report_rendering(self):
        ctx = AnalysisContext(invoices_graph(), EX.Invoice)
        text = str(ctx.check_prerequisites())
        assert "ok" in text
