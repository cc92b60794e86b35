"""The products knowledge graph of the dissertation's running example.

Schema (Fig. 1.2): ``Product`` (subclasses ``Laptop`` and ``HDType``,
with ``SSD``/``NVMe`` under ``HDType``), ``Company``, ``Person``,
``Location`` (subclasses ``Country``, ``Continent``); properties
``releaseDate``, ``price``, ``USBPorts``, ``manufacturer``,
``hardDrive``, ``origin``, ``founder``, ``birthplace``, ``locatedAt``,
``GDBPerCapita``, ``size``.

Instances (Fig. 5.3 and the §5.3.2 facet walkthrough): three laptops
(two DELL, one Lenovo), hard drives SSD1/SSD2/NVMe1 with their own
manufacturers (Maxtor ×2, AVDElectronics), companies with origins
US/China/Singapore, and the location hierarchy.

The counts in Figs. 5.4/5.5 derive from exactly this data: Company (4),
Person (3), Product (6), Location (5) with Continent (2) and Country (3),
HDType (3) with SSD (2) and NVMe (1), Laptop (3); for laptops,
``by manufacturer``: DELL (2), Lenovo (1); ``by USBports``: 2 (2), 4 (1);
``by hardDrive``: SSD1/SSD2/NVMe1 (1 each); hard-drive manufacturers:
Maxtor (2) with origin Singapore, AVDElectronics (1) with origin US.
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.rdf.turtle import parse

PRODUCTS_SCHEMA_TTL = """
@prefix ex: <http://www.ics.forth.gr/example#> .

ex:Product a rdfs:Class .
ex:Laptop a rdfs:Class ; rdfs:subClassOf ex:Product .
ex:HDType a rdfs:Class ; rdfs:subClassOf ex:Product .
ex:SSD a rdfs:Class ; rdfs:subClassOf ex:HDType .
ex:NVMe a rdfs:Class ; rdfs:subClassOf ex:HDType .
ex:Company a rdfs:Class .
ex:Person a rdfs:Class .
ex:Location a rdfs:Class .
ex:Country a rdfs:Class ; rdfs:subClassOf ex:Location .
ex:Continent a rdfs:Class ; rdfs:subClassOf ex:Location .

ex:releaseDate a rdf:Property ; rdfs:domain ex:Product .
ex:price a rdf:Property ; rdfs:domain ex:Product .
ex:USBPorts a rdf:Property ; rdfs:domain ex:Laptop .
ex:manufacturer a rdf:Property ; rdfs:domain ex:Product ; rdfs:range ex:Company .
ex:hardDrive a rdf:Property ; rdfs:domain ex:Laptop ; rdfs:range ex:HDType .
ex:origin a rdf:Property ; rdfs:domain ex:Company ; rdfs:range ex:Country .
ex:founder a rdf:Property ; rdfs:domain ex:Company ; rdfs:range ex:Person .
ex:birthplace a rdf:Property ; rdfs:domain ex:Person ; rdfs:range ex:Country .
ex:locatedAt a rdf:Property ; rdfs:domain ex:Country ; rdfs:range ex:Continent .
ex:GDBPerCapita a rdf:Property ; rdfs:domain ex:Country .
ex:size a rdf:Property ; rdfs:domain ex:Company .
ex:producer a rdf:Property .
ex:manufacturer rdfs:subPropertyOf ex:producer .
"""

PRODUCTS_DATA_TTL = """
@prefix ex: <http://www.ics.forth.gr/example#> .

# --- Locations -------------------------------------------------------
ex:US a ex:Country ; ex:locatedAt ex:NorthAmerica ; ex:GDBPerCapita 76399 .
ex:China a ex:Country ; ex:locatedAt ex:Asia ; ex:GDBPerCapita 12720 .
ex:Singapore a ex:Country ; ex:locatedAt ex:Asia ; ex:GDBPerCapita 82808 .
ex:Asia a ex:Continent .
ex:NorthAmerica a ex:Continent .

# --- Persons ---------------------------------------------------------
ex:MichaelDell a ex:Person ; ex:birthplace ex:US .
ex:LiuChuanzhi a ex:Person ; ex:birthplace ex:China .
ex:JamesMcCoy a ex:Person ; ex:birthplace ex:Singapore .

# --- Companies -------------------------------------------------------
ex:DELL a ex:Company ; ex:origin ex:US ; ex:founder ex:MichaelDell ; ex:size 133000 .
ex:Lenovo a ex:Company ; ex:origin ex:China ; ex:founder ex:LiuChuanzhi ; ex:size 77000 .
ex:Maxtor a ex:Company ; ex:origin ex:Singapore ; ex:founder ex:JamesMcCoy ; ex:size 9000 .
ex:AVDElectronics a ex:Company ; ex:origin ex:US ; ex:size 4000 .

# --- Hard drives (products of their own manufacturers) ----------------
ex:SSD1 a ex:SSD ; ex:manufacturer ex:Maxtor ; ex:price 120 ;
    ex:releaseDate "2020-11-20"^^xsd:date .
ex:SSD2 a ex:SSD ; ex:manufacturer ex:AVDElectronics ; ex:price 150 ;
    ex:releaseDate "2021-02-02"^^xsd:date .
ex:NVMe1 a ex:NVMe ; ex:manufacturer ex:Maxtor ; ex:price 180 ;
    ex:releaseDate "2021-03-15"^^xsd:date .

# --- Laptops (Fig. 5.3) ------------------------------------------------
ex:laptop1 a ex:Laptop ;
    ex:manufacturer ex:DELL ;
    ex:releaseDate "2021-06-10"^^xsd:date ;
    ex:price 1000 ;
    ex:USBPorts 2 ;
    ex:hardDrive ex:SSD1 .
ex:laptop2 a ex:Laptop ;
    ex:manufacturer ex:DELL ;
    ex:releaseDate "2021-09-03"^^xsd:date ;
    ex:price 900 ;
    ex:USBPorts 2 ;
    ex:hardDrive ex:SSD2 .
ex:laptop3 a ex:Laptop ;
    ex:manufacturer ex:Lenovo ;
    ex:releaseDate "2021-10-10"^^xsd:date ;
    ex:price 820 ;
    ex:USBPorts 4 ;
    ex:hardDrive ex:NVMe1 .
"""

PRODUCTS_TTL = PRODUCTS_SCHEMA_TTL + PRODUCTS_DATA_TTL


def products_graph() -> Graph:
    """Schema plus instances of the running example (Figs. 1.2 & 5.3)."""
    return parse(PRODUCTS_TTL)
