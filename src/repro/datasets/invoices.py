"""The invoices dataset of §2.5 and Fig. 4.1.

Seven invoices (i1..i7), each with ``takesPlaceAt`` (branch),
``delivers`` (product), ``inQuantity`` and ``hasDate``; products carry a
``brand``.  The quantities reproduce the worked HIFUN example:

* branch1: 200 + 100 = 300
* branch2: 200 + 400 = 600
* branch3: 100 + 400 + 100 = 600
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.rdf.turtle import parse

INVOICES_TTL = """
@prefix ex: <http://www.ics.forth.gr/example#> .

ex:Invoice a rdfs:Class .
ex:Branch a rdfs:Class .
ex:DProduct a rdfs:Class .
ex:takesPlaceAt a rdf:Property ; rdfs:domain ex:Invoice ; rdfs:range ex:Branch .
ex:delivers a rdf:Property ; rdfs:domain ex:Invoice ; rdfs:range ex:DProduct .
ex:inQuantity a rdf:Property ; rdfs:domain ex:Invoice .
ex:hasDate a rdf:Property ; rdfs:domain ex:Invoice .
ex:brand a rdf:Property ; rdfs:domain ex:DProduct .

ex:branch1 a ex:Branch . ex:branch2 a ex:Branch . ex:branch3 a ex:Branch .
ex:prod1 a ex:DProduct ; ex:brand ex:CocaCola .
ex:prod2 a ex:DProduct ; ex:brand ex:CocaCola .
ex:prod3 a ex:DProduct ; ex:brand ex:Fanta .

ex:i1 a ex:Invoice ; ex:takesPlaceAt ex:branch1 ; ex:delivers ex:prod1 ;
    ex:inQuantity 200 ; ex:hasDate "2020-01-05"^^xsd:date .
ex:i2 a ex:Invoice ; ex:takesPlaceAt ex:branch1 ; ex:delivers ex:prod2 ;
    ex:inQuantity 100 ; ex:hasDate "2020-02-07"^^xsd:date .
ex:i3 a ex:Invoice ; ex:takesPlaceAt ex:branch2 ; ex:delivers ex:prod1 ;
    ex:inQuantity 200 ; ex:hasDate "2020-01-12"^^xsd:date .
ex:i4 a ex:Invoice ; ex:takesPlaceAt ex:branch2 ; ex:delivers ex:prod2 ;
    ex:inQuantity 400 ; ex:hasDate "2020-03-20"^^xsd:date .
ex:i5 a ex:Invoice ; ex:takesPlaceAt ex:branch3 ; ex:delivers ex:prod1 ;
    ex:inQuantity 100 ; ex:hasDate "2020-01-25"^^xsd:date .
ex:i6 a ex:Invoice ; ex:takesPlaceAt ex:branch3 ; ex:delivers ex:prod3 ;
    ex:inQuantity 400 ; ex:hasDate "2020-01-30"^^xsd:date .
ex:i7 a ex:Invoice ; ex:takesPlaceAt ex:branch3 ; ex:delivers ex:prod3 ;
    ex:inQuantity 100 ; ex:hasDate "2020-04-02"^^xsd:date .
"""


def invoices_graph() -> Graph:
    """The seven-invoice dataset of the §2.5 worked example."""
    return parse(INVOICES_TTL)
