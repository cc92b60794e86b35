"""Tests of the bundled datasets and the endpoint simulator."""

import random
from datetime import date, timedelta

from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.datasets import (
    SyntheticConfig,
    invoices_graph,
    products_graph,
    synthetic_graph,
)
from repro.datasets.products import PRODUCTS_SCHEMA_TTL
from repro.endpoint import LocalEndpoint, NetworkModel, RemoteEndpointSimulator
from repro.rdf.rdfs import SchemaView
from repro.rdf.turtle import parse


def make_invoices(
    invoices: int,
    branches: int = 10,
    products: int = 20,
    brands: int = 5,
    seed: int = 42,
) -> Graph:
    """A larger invoices KG with the schema of ``invoices_graph``,
    deterministic by seed: the input of the HIFUN equivalence tests."""
    rng = random.Random(seed)
    graph = parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:Invoice a rdfs:Class .
        ex:Branch a rdfs:Class .
        ex:DProduct a rdfs:Class .
        ex:takesPlaceAt a rdf:Property ; rdfs:domain ex:Invoice ; rdfs:range ex:Branch .
        ex:delivers a rdf:Property ; rdfs:domain ex:Invoice ; rdfs:range ex:DProduct .
        ex:inQuantity a rdf:Property ; rdfs:domain ex:Invoice .
        ex:hasDate a rdf:Property ; rdfs:domain ex:Invoice .
        ex:brand a rdf:Property ; rdfs:domain ex:DProduct .
        """
    )
    branch_nodes = [EX.term(f"branch{i + 1}") for i in range(branches)]
    for node in branch_nodes:
        graph.add(node, RDF.type, EX.Branch)
    brand_nodes = [EX.term(f"brand{i + 1}") for i in range(brands)]
    product_nodes = [EX.term(f"prod{i + 1}") for i in range(products)]
    for node in product_nodes:
        graph.add(node, RDF.type, EX.DProduct)
        graph.add(node, EX.brand, rng.choice(brand_nodes))
    start = date(2020, 1, 1)
    for i in range(invoices):
        node = EX.term(f"i{i + 1}")
        graph.add(node, RDF.type, EX.Invoice)
        graph.add(node, EX.takesPlaceAt, rng.choice(branch_nodes))
        graph.add(node, EX.delivers, rng.choice(product_nodes))
        graph.add(node, EX.inQuantity, Literal.of(rng.randrange(1, 500)))
        graph.add(
            node, EX.hasDate, Literal.of(start + timedelta(days=rng.randrange(0, 365)))
        )
    return graph


class TestProductsDataset:
    def test_schema_only_has_no_instances(self):
        g = parse(PRODUCTS_SCHEMA_TTL)
        assert next(g.triples(None, RDF.type, EX.Laptop), None) is None

    def test_instance_counts_match_fig_5_3(self):
        view = SchemaView(products_graph())
        assert len(view.instances(EX.Laptop)) == 3
        assert len(view.instances(EX.Company)) == 4
        assert len(view.instances(EX.Person)) == 3
        assert len(view.instances(EX.Product)) == 6
        assert len(view.instances(EX.Location)) == 5

    def test_drive_manufacturers(self):
        g = products_graph()
        assert g.value(EX.SSD1, EX.manufacturer, None) == EX.Maxtor
        assert g.value(EX.SSD2, EX.manufacturer, None) == EX.AVDElectronics


class TestInvoicesDataset:
    def test_worked_example_totals(self):
        g = invoices_graph()
        quantities = {}
        for invoice in g.subjects(RDF.type, EX.Invoice):
            branch = g.value(invoice, EX.takesPlaceAt, None)
            qty = g.value(invoice, EX.inQuantity, None).to_python()
            quantities[branch] = quantities.get(branch, 0) + qty
        assert quantities == {EX.branch1: 300, EX.branch2: 600, EX.branch3: 600}

    def test_generator_is_deterministic(self):
        assert make_invoices(50, seed=3) == make_invoices(50, seed=3)
        assert make_invoices(50, seed=3) != make_invoices(50, seed=4)

    def test_generator_size(self):
        g = make_invoices(100, branches=5, products=10)
        assert len(list(g.subjects(RDF.type, EX.Invoice))) == 100
        assert len(list(g.subjects(RDF.type, EX.Branch))) == 5

    def test_generated_invoices_are_functional(self):
        """Every invoice has exactly one value of each attribute."""
        from repro.analysis import infer_schema

        g = make_invoices(60)
        schema = infer_schema(g)
        for prop in set(g.predicates(EX.i1, None)) - {RDF.type}:
            signature = schema.signature(prop)
            assert signature.functional and signature.subjects == 60


class TestSyntheticDataset:
    def test_deterministic(self):
        cfg = SyntheticConfig(laptops=50, seed=9)
        assert synthetic_graph(cfg) == synthetic_graph(cfg)

    def test_scales_with_config(self):
        small = synthetic_graph(SyntheticConfig(laptops=10))
        large = synthetic_graph(SyntheticConfig(laptops=100))
        assert len(large) > len(small)

    def test_every_laptop_fully_attributed(self):
        g = synthetic_graph(SyntheticConfig(laptops=30))
        for laptop in g.subjects(RDF.type, EX.Laptop):
            for prop in (EX.manufacturer, EX.hardDrive, EX.price,
                         EX.USBPorts, EX.releaseDate):
                assert g.value(laptop, prop, None) is not None

    def test_paths_reach_continents(self):
        from repro.sparql import query

        g = synthetic_graph(SyntheticConfig(laptops=20))
        res = query(
            g,
            "SELECT DISTINCT ?c WHERE "
            "{ ?l a ex:Laptop . ?l ex:manufacturer/ex:origin/ex:locatedAt ?c }",
        )
        assert len(res) >= 1


class TestEndpoints:
    QUERY = "SELECT ?s WHERE { ?s a ex:Laptop }"

    def test_local_endpoint_records_history(self):
        ep = LocalEndpoint(products_graph())
        result = ep.query(self.QUERY)
        assert len(result) == 3
        assert ep.last.rows == 3
        assert ep.last.network_seconds == 0.0

    def test_simulator_adds_virtual_latency(self):
        ep = RemoteEndpointSimulator(
            products_graph(), NetworkModel.offpeak(), seed=5
        )
        ep.query(self.QUERY)
        assert ep.last.network_seconds > 0.0
        assert ep.last.total_seconds > ep.last.engine_seconds

    def test_simulator_deterministic_by_seed(self):
        a = RemoteEndpointSimulator(products_graph(), NetworkModel.peak(), seed=7)
        b = RemoteEndpointSimulator(products_graph(), NetworkModel.peak(), seed=7)
        a.query(self.QUERY)
        b.query(self.QUERY)
        assert a.last.network_seconds == b.last.network_seconds

    def test_peak_slower_than_offpeak_on_average(self):
        peak = RemoteEndpointSimulator(products_graph(), NetworkModel.peak(), seed=1)
        off = RemoteEndpointSimulator(products_graph(), NetworkModel.offpeak(), seed=1)
        for _ in range(30):
            peak.query(self.QUERY)
            off.query(self.QUERY)
        peak_mean = sum(s.network_seconds for s in peak.history) / 30
        off_mean = sum(s.network_seconds for s in off.history) / 30
        assert peak_mean > off_mean * 1.5

    def test_row_transfer_cost_grows_with_result(self):
        model = NetworkModel("flat", base_latency=0.0, sigma=0.0, load=1.0,
                             per_row=0.001)
        import random

        rng = random.Random(0)
        assert model.sample(rng, 1000) > model.sample(rng, 10)
