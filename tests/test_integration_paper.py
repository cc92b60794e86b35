"""Integration tests reproducing the paper's worked figures end to end.

Each test corresponds to a specific figure/listing of the dissertation
and exercises several subsystems together (datasets → facets/HIFUN →
SPARQL → answers).
"""

import datetime

from repro.datasets import invoices_graph, products_graph
from repro.facets import FacetedAnalyticsSession
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.sparql import query as sparql


class TestFig1_3MotivatingQuery:
    """The introduction's SPARQL query vs the interactive formulation."""

    RAW = """
    SELECT ?m (AVG(?p) AS ?avgprice)
    WHERE {
      ?s rdf:type ex:Laptop .
      ?s ex:manufacturer ?m .
      ?m ex:origin ex:US .
      ?s ex:price ?p .
      ?s ex:USBPorts ?u .
      ?s ex:hardDrive ?hd .
      ?hd rdf:type ex:SSD .
      ?hd ex:manufacturer ?hdm .
      ?hdm ex:origin ?hdmc .
      ?hdmc ex:locatedAt ex:Asia .
      FILTER (?u >= 2) .
      ?s ex:releaseDate ?rd .
      FILTER (?rd >= "2021-01-01"^^xsd:date && ?rd <= "2021-12-31"^^xsd:date)
    }
    GROUP BY ?m
    """

    def test_raw_sparql(self):
        result = sparql(products_graph(), self.RAW)
        assert len(result) == 1
        row = result[0]
        assert row["m"] == EX.DELL
        assert row.value("avgprice") == 1000.0

    def test_interactive_equivalent(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        session.select_interval(
            (EX.releaseDate,),
            Literal.of(datetime.date(2021, 1, 1)),
            Literal.of(datetime.date(2021, 12, 31)),
        )
        session.select_value((EX.manufacturer, EX.origin), EX.US)
        session.select_range((EX.USBPorts,), ">=", Literal.of(2))
        facet = session.facet((EX.hardDrive,))
        ssd_values = [
            m.value
            for m in session.group_values_by_class(facet).get(EX.SSD, [])
        ]
        session.select_values((EX.hardDrive,), ssd_values)
        session.select_value(
            (EX.hardDrive, EX.manufacturer, EX.origin, EX.locatedAt), EX.Asia
        )
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        frame = session.run()
        assert len(frame) == 1
        assert frame.rows[0] == (EX.DELL, Literal.of(1000.0))


class TestFig2_6TotalQuantities:
    """'Total quantities of products released by company' (Fig. 2.6)."""

    def test_count_products_per_manufacturer(self):
        from repro.rdf.rdfs import RDFSClosure

        closed = RDFSClosure(products_graph()).graph()
        result = sparql(
            closed,
            """
            SELECT ?m (COUNT(?p) AS ?total_products)
            WHERE { ?p rdf:type ex:Product . ?p ex:manufacturer ?m . }
            GROUP BY ?m ORDER BY ?m
            """,
        )
        counts = {row["m"].local_name(): row.value("total_products") for row in result}
        # With RDFS inference, laptops and drives are Products.
        assert counts == {"DELL": 2, "Lenovo": 1, "Maxtor": 2, "AVDElectronics": 1}


class TestSection2_5WorkedExample:
    """The grouping/measuring/reduction walkthrough on invoices."""

    def test_three_step_answer(self):
        session = FacetedAnalyticsSession(invoices_graph())
        session.select_class(EX.Invoice)
        session.group_by((EX.takesPlaceAt,))
        session.measure((EX.inQuantity,), "SUM")
        frame = session.run()
        answer = {row[0].local_name(): row[1].to_python() for row in frame.rows}
        assert answer == {"branch1": 300, "branch2": 600, "branch3": 600}


class TestInferenceDrivenFacets:
    """§4.1.1: the model leverages rdfs:subClassOf / subPropertyOf."""

    def test_subproperty_facet_contains_inherited_values(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Laptop)
        producer = session.facet((EX.producer,))
        # manufacturer ⊑ producer: the producer facet shows the makers.
        assert {v.label for v in producer.values} == {"DELL", "Lenovo"}

    def test_analytics_over_inferred_class(self):
        session = FacetedAnalyticsSession(products_graph())
        session.select_class(EX.Product)  # 6 members via inference
        session.group_by((EX.manufacturer,))
        session.count_items()
        frame = session.run()
        total = sum(row[-1].to_python() for row in frame.rows)
        assert total == 6

    def test_analytics_over_schema_level(self):
        """§4.1.1: HIFUN applies to the schema too — count the direct
        subclasses of each class."""
        from repro.hifun import Attribute, HifunQuery, evaluate_hifun
        from repro.rdf.namespace import RDFS

        graph = products_graph()
        q = HifunQuery(
            Attribute(RDFS.subClassOf), None, "COUNT"
        )
        classes = set(graph.subjects(RDFS.subClassOf, None))
        answer = evaluate_hifun(graph, q, items=classes)
        # Product has Laptop+HDType as direct subs; HDType has SSD+NVMe;
        # Location has Country+Continent.
        counts = {key[0].local_name(): v["COUNT"].to_python()
                  for key, v in answer.items()}
        assert counts["Product"] == 2
        assert counts["HDType"] == 2
        assert counts["Location"] == 2


class TestEndToEndNestedPipeline:
    """The full dual-purpose pipeline: search → explore → analyze →
    reload → analyze again (the 'seamless transition' of the abstract)."""

    def test_full_pipeline(self):
        from repro.search import KeywordIndex

        graph = products_graph()
        hits = KeywordIndex(graph).search("laptop")
        session = FacetedAnalyticsSession(
            graph, results=[h.resource for h in hits]
        )
        # keyword results include the laptops; restrict to the typed class
        session.select_class(EX.Laptop)
        assert len(session.extension) == 3
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        frame = session.run()
        nested = frame.explore()
        nested.select_range(
            (frame.column_property("avg_price"),), ">=", Literal.of(900)
        )
        nested.group_by((frame.column_property("manufacturer"),))
        nested.count_items()
        final = nested.run()
        assert len(final) == 1
        assert final.rows[0][0] == EX.DELL
