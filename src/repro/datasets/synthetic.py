"""A deterministic generator of product-like knowledge graphs.

Used by the scalability and efficiency experiments (Ch. 6): the schema
mirrors the running example (products → manufacturers → countries →
continents, hard drives with their own manufacturers), so every query
shape of the dissertation — paths of length 1–3, numeric facets, date
facets — is exercised at any size.

The generator is seeded and purely synthetic; it stands in for the
DBpedia-scale graphs of the paper's testbed (see DESIGN.md,
*Substitutions*).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta

from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.rdf.turtle import parse

_SCHEMA_TTL = """
@prefix ex: <http://www.ics.forth.gr/example#> .
ex:Product a rdfs:Class .
ex:Laptop a rdfs:Class ; rdfs:subClassOf ex:Product .
ex:HDType a rdfs:Class ; rdfs:subClassOf ex:Product .
ex:SSD a rdfs:Class ; rdfs:subClassOf ex:HDType .
ex:NVMe a rdfs:Class ; rdfs:subClassOf ex:HDType .
ex:Company a rdfs:Class .
ex:Country a rdfs:Class .
ex:Continent a rdfs:Class .
ex:releaseDate a rdf:Property . ex:price a rdf:Property .
ex:USBPorts a rdf:Property . ex:manufacturer a rdf:Property .
ex:hardDrive a rdf:Property . ex:origin a rdf:Property .
ex:locatedAt a rdf:Property .
"""


@dataclass(frozen=True)
class SyntheticConfig:
    """Size knobs of the synthetic KG."""

    laptops: int = 1000
    companies: int = 20
    countries: int = 8
    continents: int = 3
    drives_per_laptop_pool: int = 50
    seed: int = 7

    @property
    def label(self) -> str:
        return f"{self.laptops} laptops"


def synthetic_graph(config: SyntheticConfig = SyntheticConfig()) -> Graph:
    """Generate the synthetic products KG for ``config`` (deterministic)."""
    rng = random.Random(config.seed)
    graph = parse(_SCHEMA_TTL)

    continents = [EX.term(f"continent{i}") for i in range(config.continents)]
    for node in continents:
        graph.add(node, RDF.type, EX.Continent)
    countries = [EX.term(f"country{i}") for i in range(config.countries)]
    for node in countries:
        graph.add(node, RDF.type, EX.Country)
        graph.add(node, EX.locatedAt, rng.choice(continents))
    companies = [EX.term(f"company{i}") for i in range(config.companies)]
    for node in companies:
        graph.add(node, RDF.type, EX.Company)
        graph.add(node, EX.origin, rng.choice(countries))

    drive_classes = (EX.SSD, EX.NVMe)
    drives = [EX.term(f"drive{i}") for i in range(config.drives_per_laptop_pool)]
    for node in drives:
        graph.add(node, RDF.type, rng.choice(drive_classes))
        graph.add(node, EX.manufacturer, rng.choice(companies))
        graph.add(node, EX.price, Literal.of(rng.randrange(50, 400)))

    start = date(2019, 1, 1)
    for i in range(config.laptops):
        node = EX.term(f"laptop{i}")
        graph.add(node, RDF.type, EX.Laptop)
        graph.add(node, EX.manufacturer, rng.choice(companies))
        graph.add(node, EX.hardDrive, rng.choice(drives))
        graph.add(node, EX.price, Literal.of(rng.randrange(400, 3000)))
        graph.add(node, EX.USBPorts, Literal.of(rng.choice((1, 2, 2, 3, 4))))
        graph.add(
            node,
            EX.releaseDate,
            Literal.of(start + timedelta(days=rng.randrange(0, 1460))),
        )
    return graph
