"""Tests of HIFUN evaluation over a class or an explicit item root, and
of the remote-endpoint facet engine (the 'any remote endpoint' claim)."""


from repro.rdf.namespace import EX, RDF
from repro.rdf.rdfs import RDFSClosure
from repro.datasets import invoices_graph, products_graph
from repro.endpoint import NetworkModel, RemoteEndpointSimulator
from repro.facets import FacetedSession, SparqlFacetEngine
from repro.facets.model import PropertyRef
from repro.hifun import Attribute, HifunQuery, evaluate_hifun, translate
from repro.hifun.evaluator import evaluate_hifun_row
from repro.sparql import query as sparql


SUM_BY_BRANCH = HifunQuery(Attribute(EX.takesPlaceAt),
                           Attribute(EX.inQuantity), "SUM")


class TestContextEvaluation:
    def test_evaluate_over_class_root(self):
        answer = evaluate_hifun(invoices_graph(), SUM_BY_BRANCH,
                                root_class=EX.Invoice)
        assert answer[EX.branch1]["SUM"].to_python() == 300

    def test_evaluate_over_explicit_items(self):
        answer = evaluate_hifun(invoices_graph(), SUM_BY_BRANCH,
                                items=[EX.i1, EX.i2, EX.i3])
        assert answer[EX.branch1]["SUM"].to_python() == 300
        assert answer[EX.branch2]["SUM"].to_python() == 200

    def test_translate_matches_evaluate(self):
        g = invoices_graph()
        translation = translate(SUM_BY_BRANCH, root_class=EX.Invoice)
        translated = sorted(
            tuple(row.get(c) for c in translation.answer_columns)
            for row in sparql(g, translation.text)
        )
        invoices = g.subjects(RDF.type, EX.Invoice)
        assert translated == sorted(
            evaluate_hifun_row(g, SUM_BY_BRANCH, items=invoices).rows())


class TestRemoteFacetEngine:
    """The SPARQL-only engine against a latency-simulated *remote*
    endpoint: the interaction model without any local index access."""

    def test_facets_over_remote_endpoint(self):
        closed = RDFSClosure(products_graph()).graph()
        endpoint = RemoteEndpointSimulator(closed, NetworkModel.offpeak(), seed=2)
        engine = SparqlFacetEngine(closed, endpoint=endpoint)
        session = FacetedSession(closed, closed=True)
        session.select_class(EX.Laptop)
        facet = engine.facet(session.extension, (PropertyRef(EX.manufacturer),))
        assert {str(v) for v in facet.values} == {"DELL (2)", "Lenovo (1)"}
        # The endpoint recorded real (virtual) network time per query.
        assert endpoint.history
        assert all(s.network_seconds > 0 for s in endpoint.history)

    def test_restrict_over_remote_endpoint(self):
        closed = RDFSClosure(products_graph()).graph()
        endpoint = RemoteEndpointSimulator(closed, NetworkModel.peak(), seed=3)
        engine = SparqlFacetEngine(closed, endpoint=endpoint)
        result = engine.restrict(
            {EX.laptop1, EX.laptop2, EX.laptop3},
            (PropertyRef(EX.manufacturer),),
            EX.DELL,
        )
        assert result == {EX.laptop1, EX.laptop2}
