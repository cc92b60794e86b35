"""Tests of RDFS closure and schema navigation (§2.1 semantics)."""

from collections import defaultdict

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.facets import FacetedSession
from repro.rdf import Graph, RDFSClosure, SchemaView
from repro.rdf.namespace import EX, RDF, RDFS
from repro.rdf.rdfs import _transitive_closure
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import BNode, IRI, Literal
from repro.rdf.turtle import parse


@pytest.fixture()
def schema_graph():
    return parse(
        """
        @prefix ex: <http://www.ics.forth.gr/example#> .
        ex:Laptop rdfs:subClassOf ex:Product .
        ex:Gaming rdfs:subClassOf ex:Laptop .
        ex:manufacturer rdfs:subPropertyOf ex:producer .
        ex:manufacturer rdfs:domain ex:Product .
        ex:manufacturer rdfs:range ex:Company .
        ex:l1 a ex:Gaming ; ex:manufacturer ex:DELL .
        """
    )


class TestClosure:
    def test_subclass_transitivity(self, schema_graph):
        g = RDFSClosure(schema_graph).graph()
        assert (EX.Gaming, RDFS.subClassOf, EX.Product) in g

    def test_type_propagation(self, schema_graph):
        g = RDFSClosure(schema_graph).graph()
        assert (EX.l1, RDF.type, EX.Laptop) in g
        assert (EX.l1, RDF.type, EX.Product) in g

    def test_subproperty_triple_propagation(self, schema_graph):
        g = RDFSClosure(schema_graph).graph()
        assert (EX.l1, EX.producer, EX.DELL) in g

    def test_domain_range_typing(self, schema_graph):
        g = RDFSClosure(schema_graph).graph()
        assert (EX.l1, RDF.type, EX.Product) in g
        assert (EX.DELL, RDF.type, EX.Company) in g

    def test_range_does_not_type_literals(self):
        g = parse(
            """
            @prefix ex: <http://www.ics.forth.gr/example#> .
            ex:price rdfs:range ex:Money .
            ex:a ex:price 5 .
            """
        )
        closed = RDFSClosure(g).graph()
        assert (Literal.of(5), RDF.type, EX.Money) not in closed

    def test_cycle_tolerated(self):
        g = Graph()
        g.add(EX.A, RDFS.subClassOf, EX.B)
        g.add(EX.B, RDFS.subClassOf, EX.A)
        closed = RDFSClosure(g).graph()
        assert (EX.A, RDFS.subClassOf, EX.B) in closed
        assert (EX.B, RDFS.subClassOf, EX.A) in closed

    def test_source_untouched(self, schema_graph):
        before = len(schema_graph)
        RDFSClosure(schema_graph).graph()
        assert len(schema_graph) == before


_TYPE = RDF.type
_SUBCLASS = RDFS.subClassOf
_SUBPROP = RDFS.subPropertyOf
_DOMAIN = RDFS.domain
_RANGE = RDFS.range


class TermLevelClosure:
    """The oracle: ``RDFSClosure`` as it was before it moved into id
    space — ``__init__``, ``_edge_map`` and the ``_materialize`` body
    verbatim, except that the copy it starts from is spelled out as what
    ``Graph.copy()`` then was (every triple re-inserted)."""

    def __init__(self, source):
        self.source = source
        self._subclass_of = self._edge_map(_SUBCLASS)
        self._subprop_of = self._edge_map(_SUBPROP)
        self.superclasses = _transitive_closure(self._subclass_of)
        self.superproperties = _transitive_closure(self._subprop_of)
        self._graph = self._materialize()

    def _edge_map(self, predicate):
        edges = defaultdict(set)
        for s, _, o in self.source.triples(None, predicate, None):
            if s != o:
                edges[s].add(o)
        return dict(edges)

    def _materialize(self):
        g = self.source._new_like(self.source.triples())
        # subClassOf / subPropertyOf transitivity
        for cls, supers in self.superclasses.items():
            for sup in supers:
                g.add(cls, _SUBCLASS, sup)
        for prop, supers in self.superproperties.items():
            for sup in supers:
                g.add(prop, _SUBPROP, sup)
        # subPropertyOf triple propagation (do this before domain/range and
        # type propagation so inherited statements are typed as well).
        for prop, supers in self.superproperties.items():
            if not supers:
                continue
            for s, _, o in list(g.triples(None, prop, None)):
                for sup in supers:
                    if isinstance(sup, IRI):
                        g.add(s, sup, o)
        # domain / range typing
        for prop, _, cls in list(g.triples(None, _DOMAIN, None)):
            if not isinstance(prop, IRI):
                continue
            for s, _, _o in list(g.triples(None, prop, None)):
                g.add(s, _TYPE, cls)
        for prop, _, cls in list(g.triples(None, _RANGE, None)):
            if not isinstance(prop, IRI):
                continue
            for _s, _, o in list(g.triples(None, prop, None)):
                if not isinstance(o, Literal):
                    g.add(o, _TYPE, cls)
        # rdf:type propagation along subClassOf
        for cls, supers in self.superclasses.items():
            if not supers:
                continue
            for inst in list(g.subjects(_TYPE, cls)):
                for sup in supers:
                    g.add(inst, _TYPE, sup)
        return g

    def graph(self):
        return self._graph


_CLASSES = [EX.term(f"C{i}") for i in range(4)]
_PROPERTIES = [EX.term(f"p{i}") for i in range(4)]
_INSTANCES = [EX.term(f"i{i}") for i in range(4)]
_SCHEMA = [_TYPE, _SUBCLASS, _SUBPROP, _DOMAIN, _RANGE]
_ODD = [BNode("b"), Literal.of(1), Literal.of("x")]
_RESOURCES = _CLASSES + _PROPERTIES + _INSTANCES + _SCHEMA + _ODD[:1]


def _drawn(subjects, predicates, objects):
    return st.tuples(st.sampled_from(subjects), st.sampled_from(predicates),
                     st.sampled_from(objects))


#: Instance data, well-formed axioms (cycles and a property below itself
#: arise by themselves on four names), a literal or blank node in a
#: super-class, super-property, domain or range position, schema
#: predicates as sub-properties and as the subject of axioms, and
#: finally any resource with any predicate — schema predicates as data.
_statements = st.one_of(
    _drawn(_INSTANCES + _ODD[:1], _PROPERTIES, _INSTANCES + _ODD),
    _drawn(_INSTANCES, [_TYPE], _CLASSES),
    _drawn(_CLASSES + _ODD[:1], [_SUBCLASS], _CLASSES + _ODD),
    _drawn(_PROPERTIES + _SCHEMA + _ODD[:1], [_SUBPROP],
           _PROPERTIES + _SCHEMA + _ODD),
    _drawn(_PROPERTIES + _SCHEMA + _ODD[:1], [_DOMAIN, _RANGE],
           _CLASSES + _ODD),
    _drawn(_RESOURCES, _PROPERTIES + _SCHEMA, _RESOURCES + _ODD),
)


@pytest.mark.parametrize(
    "empty", [Graph, lambda: ShardedGraph(shards=4)], ids=["flat", "4-shard"])
@given(st.lists(_statements, max_size=24))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_closure_over_index_rows_equals_the_term_level_closure(empty, triples):
    source = empty()
    source.add_all(triples)
    untouched = (len(source), source.generation, len(source.dictionary))
    closed = RDFSClosure(source).graph()
    expected = TermLevelClosure(source).graph()
    # Out of scope: a domain or range of rdf:type itself.  Those two
    # passes then read the rdf:type rows they are writing, so which
    # types get typed again depends on the order the index lists the
    # axioms in — for the oracle as much as for the closure under test
    # ({i p i, p domain C1, rdf:type domain C0}: i is a C0 only if the
    # C1 axiom happens to come first).
    assume(not any(expected.count(_TYPE, axiom, None)
                   for axiom in (_DOMAIN, _RANGE)))
    assert type(closed) is type(source)
    assert set(closed) == set(expected)
    assert len(closed) == len(expected)
    assert closed.predicate_counts() == expected.predicate_counts()
    assert (len(source), source.generation,
            len(source.dictionary)) == untouched


class TestSchemaView:
    def test_classes(self, schema_graph):
        view = SchemaView(schema_graph)
        classes = {c.local_name() for c in view.classes()}
        assert {"Laptop", "Gaming", "Product", "Company"} <= classes

    def test_instances_under_inference(self, schema_graph):
        view = SchemaView(schema_graph)
        assert EX.l1 in view.instances(EX.Product)
        assert EX.l1 in view.instances(EX.Gaming)

    def test_maximal_classes(self, schema_graph):
        view = SchemaView(schema_graph)
        names = {c.local_name() for c in view.maximal_classes()}
        assert "Product" in names
        assert "Laptop" not in names

    def test_direct_subclasses_skip_levels(self, schema_graph):
        view = SchemaView(schema_graph)
        direct = view.subclasses(EX.Product, direct=True)
        assert EX.Laptop in direct
        assert EX.Gaming not in direct
        assert EX.Gaming in view.subclasses(EX.Product)

    def test_direct_superclasses(self, schema_graph):
        view = SchemaView(schema_graph)
        assert view.superclasses(EX.Gaming, direct=True) == {EX.Laptop}
        assert view.superclasses(EX.Gaming) == {EX.Laptop, EX.Product}

    def test_direct_superproperties_skip_levels(self):
        view = SchemaView(parse(
            """
            @prefix ex: <http://www.ics.forth.gr/example#> .
            ex:manufacturer rdfs:subPropertyOf ex:producer .
            ex:producer rdfs:subPropertyOf ex:agent .
            """
        ))
        assert view.superproperties(EX.manufacturer, direct=True) == {EX.producer}
        assert view.superproperties(EX.manufacturer) == {EX.producer, EX.agent}
        assert view.superproperties(EX.agent, direct=True) == set()

    def test_properties_include_used(self, schema_graph):
        view = SchemaView(schema_graph)
        names = {p.local_name() for p in view.properties()}
        assert {"manufacturer", "producer"} <= names

    def test_maximal_properties(self, schema_graph):
        """The session's property hierarchy roots each sub-property
        under its superproperty."""
        tree = FacetedSession(schema_graph, results=[EX.l1]).property_hierarchy()
        roots = {ref.prop.local_name(): ref for ref in tree}
        assert "producer" in roots
        assert "manufacturer" not in roots
        assert [r.prop for r in tree[roots["producer"]]] == [EX.manufacturer]

    def test_domain_range(self, schema_graph):
        view = SchemaView(schema_graph)
        assert view.domain(EX.manufacturer) == EX.Product
        assert view.range(EX.manufacturer) == EX.Company

    def test_properties_of(self, schema_graph):
        session = FacetedSession(schema_graph, results=[EX.l1])
        props = {ref.prop for ref in session.applicable_properties()}
        assert EX.manufacturer in props
        assert RDF.type not in props

    def test_property_instances(self, schema_graph):
        """``inst(p)`` under the closure holds the sub-property's triples."""
        view = SchemaView(schema_graph)
        assert (EX.l1, EX.producer, EX.DELL) in set(
            view.graph.triples(None, EX.producer, None))

    def test_class_tree(self, schema_graph):
        """The expanded class markers follow the subclass reduction."""
        markers = FacetedSession(schema_graph).class_markers(expanded=True)
        (product,) = [m for m in markers if m.cls == EX.Product]
        (laptop,) = product.children
        assert laptop.cls == EX.Laptop
        assert [m.cls for m in laptop.children] == [EX.Gaming]
