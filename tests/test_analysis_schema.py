"""Schema inference (repro.analysis.schema) over the products KG, and
its observed domains and ranges against a per-node oracle on drawn
graphs."""

import datetime

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import SchemaInfo, infer_schema
from repro.analysis.schema import _infer
from repro.datasets import products_graph
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF, RDFS, XSD
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import IRI, Literal
from repro.rdf.turtle import parse


def test_infer_schema_basic_shape():
    schema = infer_schema(products_graph())
    assert isinstance(schema, SchemaInfo)
    assert EX.Laptop in schema.classes
    assert EX.Company in schema.classes
    assert schema.signature(EX.manufacturer) is not None
    assert schema.signature(IRI(str(EX) + "noSuchProperty")) is None


def test_manufacturer_signature():
    schema = infer_schema(products_graph())
    sig = schema.signature(EX.manufacturer)
    assert sig.functional, "each laptop has exactly one manufacturer"
    assert sig.is_object_property
    assert not sig.is_datatype_property
    assert EX.Company in sig.ranges
    assert EX.Laptop in sig.domains


def test_price_signature_is_numeric():
    schema = infer_schema(products_graph())
    sig = schema.signature(EX.price)
    assert sig.is_datatype_property
    assert str(XSD.integer) in sig.datatypes


def test_release_date_signature_is_temporal():
    schema = infer_schema(products_graph())
    sig = schema.signature(EX.releaseDate)
    assert str(XSD.date) in sig.datatypes


def test_superclass_closure_is_reflexive_transitive():
    schema = infer_schema(products_graph())
    up = schema.up({EX.SSD})
    assert EX.SSD in up          # reflexive
    assert EX.HDType in up       # direct
    assert EX.Product in up      # transitive


def test_superclass_closure_survives_a_subclass_cycle():
    """``A ⊑ B ⊑ A`` closes to the same up-set for both, each holding
    itself once: the closure iterates to a fixpoint."""
    g = parse("@prefix ex: <http://www.ics.forth.gr/example#> . "
              "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:A . "
              "ex:C rdfs:subClassOf ex:A .")
    schema = infer_schema(g)
    assert schema.superclasses[EX.A] == schema.superclasses[EX.B] == {
        EX.A, EX.B}
    assert schema.up({EX.C}) == {EX.A, EX.B, EX.C}


def test_compatible_respects_subclassing():
    schema = infer_schema(products_graph())
    # Laptop ⊑ Product: sharing an ancestor makes them compatible.
    assert schema.compatible(frozenset({EX.Laptop}), frozenset({EX.Product}))
    # Disjoint hierarchies are incompatible.
    assert not schema.compatible(
        frozenset({EX.Company}), frozenset({EX.Laptop})
    )


def test_compatible_is_permissive_on_unknown():
    schema = infer_schema(products_graph())
    # The provable-only principle: no information, no veto.
    assert schema.compatible(frozenset(), frozenset({EX.Laptop}))
    assert schema.compatible(frozenset({EX.Laptop}), frozenset())


def test_schema_cache_tracks_generation():
    graph = products_graph()
    first = infer_schema(graph)
    assert infer_schema(graph) is first, "same generation → cached object"
    graph.add(
        EX.newLaptop, EX.releaseDate, Literal.of(datetime.date(2024, 1, 1))
    )
    second = infer_schema(graph)
    assert second is not first, "mutation must invalidate the cache"
    assert second.generation == graph.generation


def test_declared_but_unused_property_has_empty_signature():
    # ``producer`` is declared in the schema (superproperty of
    # manufacturer) but never asserted in the data.
    schema = infer_schema(products_graph())
    sig = schema.signature(EX.producer)
    assert sig is not None
    assert sig.triples == 0


_NODES = [EX.term(f"n{i}") for i in range(5)]
_CLASSES = [EX.A, EX.B, Literal.of("not a class")]


@settings(derandomize=True, deadline=None)
@given(sharded=st.booleans(), triples=st.lists(st.one_of(
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q]),
              st.sampled_from(_NODES + [Literal.of(1), Literal.of("x")])),
    st.tuples(st.sampled_from(_NODES + [EX.p]), st.just(RDF.type),
              st.sampled_from(_CLASSES)),
    st.tuples(st.just(EX.p), st.sampled_from([RDFS.domain, RDFS.range]),
              st.sampled_from(_CLASSES[:2])))))
def test_observed_domains_and_ranges_are_the_nodes_types(sharded, triples):
    """A class is a property's observed domain (range) iff some subject
    (resource object) of the property has it as a type."""
    graph = ShardedGraph(triples, shards=3) if sharded else Graph(triples)
    schema = _infer(graph)
    for prop, sig in schema.signatures.items():
        pairs = [(s, o) for s, _, o in graph.triples(None, prop, None)]

        def types_of(nodes):
            return {c for n in nodes for c in graph.objects(n, RDF.type)}
        assert sig.domains == set(graph.objects(prop, RDFS.domain)) \
            | types_of({s for s, _ in pairs})
        resources = {o for _, o in pairs if not isinstance(o, Literal)}
        assert sig.ranges == set(graph.objects(prop, RDFS.range)) \
            | types_of(resources)
        assert sig.resource_objects == len(resources)
