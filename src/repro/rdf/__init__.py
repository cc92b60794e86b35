"""RDF substrate: terms, graphs, RDFS inference and Turtle/N-Triples I/O.

This package is a self-contained, dependency-free implementation of the
parts of the RDF stack that RDF-Analytics needs:

* :mod:`repro.rdf.terms` — IRIs, blank nodes and typed literals.
* :mod:`repro.rdf.namespace` — namespace helpers and the RDF/RDFS/XSD/OWL
  vocabularies.
* :mod:`repro.rdf.dictionary` — dictionary encoding of terms onto dense
  int ids (the performance substrate of the store).
* :mod:`repro.rdf.graph` — an in-memory, dictionary-encoded triple store
  with SPO/POS/OSP indexes, incremental cardinality statistics and
  pattern matching.
* :mod:`repro.rdf.overlay` — a read-only view of a store plus one
  session's virtual ``rdf:type :temp`` triples (:class:`ExtensionView`).
* :mod:`repro.rdf.rdfs` — RDFS closure (subClassOf, subPropertyOf, domain,
  range) and class/property hierarchies.
* :mod:`repro.rdf.sharding` — the hash-partitioned store
  (:class:`ShardedGraph`): N plain ``Graph`` slices behind one surface.
* :mod:`repro.rdf.turtle` / :mod:`repro.rdf.ntriples` — parsers and
  serializers for the Turtle subset used by the bundled datasets.
* :mod:`repro.rdf.bulkload` — streaming bulk loaders feeding (sharded)
  stores without materializing the input.
"""

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    Triple,
)
from repro.rdf.namespace import Namespace, OWL, RDF, RDFS, XSD, EX
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.overlay import ExtensionView
from repro.rdf.rdfs import RDFSClosure, SchemaView
from repro.rdf.sharding import ShardedGraph

__all__ = [
    "BNode",
    "IRI",
    "Literal",
    "Term",
    "Triple",
    "Namespace",
    "RDF",
    "RDFS",
    "XSD",
    "OWL",
    "EX",
    "ExtensionView",
    "Graph",
    "RDFSClosure",
    "SchemaView",
    "ShardedGraph",
    "TermDictionary",
]
