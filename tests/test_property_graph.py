"""Property-based tests of the RDF substrate (hypothesis).

Invariants: index consistency under arbitrary add/remove interleavings,
serialization round-trips, closure monotonicity and idempotence.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF, RDFS
from repro.rdf.rdfs import RDFSClosure
from repro.rdf.terms import Literal
from repro.rdf import ntriples, turtle

_subjects = st.sampled_from([EX.term(f"s{i}") for i in range(6)])
_predicates = st.sampled_from([EX.term(f"p{i}") for i in range(4)])
_objects = st.one_of(
    st.sampled_from([EX.term(f"o{i}") for i in range(6)]),
    st.integers(min_value=-1000, max_value=1000).map(Literal.of),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF
        ),
        max_size=8,
    ).map(Literal.of),
)
_triples = st.tuples(_subjects, _predicates, _objects)
_triple_lists = st.lists(_triples, max_size=30)


class TestGraphInvariants:
    @given(_triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_size_equals_distinct_triples(self, triples):
        g = Graph(triples)
        assert len(g) == len(set(triples))

    @given(_triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_indexes_agree_on_every_access_shape(self, triples):
        g = Graph(triples)
        everything = set(g.triples())
        for s, p, o in set(triples):
            assert (s, p, o) in g
            assert (s, p, o) in set(g.triples(s, None, None))
            assert (s, p, o) in set(g.triples(None, p, None))
            assert (s, p, o) in set(g.triples(None, None, o))
        assert everything == set(triples)

    @given(_triple_lists, _triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_remove_inverts_add(self, base, extra):
        g = Graph(base)
        snapshot = set(g.triples())
        added = [t for t in extra if g.add(*t)]
        for t in added:
            assert g.remove(*t)
        assert set(g.triples()) == snapshot

    @given(_triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_union_is_commutative_on_content(self, triples):
        midpoint = len(triples) // 2
        a, b = Graph(triples[:midpoint]), Graph(triples[midpoint:])
        assert a.union(b) == b.union(a)

    @given(_triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_count_matches_iteration_everywhere(self, triples):
        g = Graph(triples)
        for s, p, o in set(triples):
            for pattern in [
                (s, None, None), (None, p, None), (None, None, o),
                (s, p, None), (None, p, o), (s, None, o), (s, p, o),
            ]:
                assert g.count(*pattern) == len(list(g.triples(*pattern)))


class TestSerializationRoundtrips:
    @given(_triple_lists)
    @settings(max_examples=50, deadline=None)
    def test_ntriples_roundtrip(self, triples):
        g = Graph(triples)
        assert ntriples.parse_into(ntriples.serialize(g)) == g

    @given(_triple_lists)
    @settings(max_examples=50, deadline=None)
    def test_turtle_roundtrip(self, triples):
        g = Graph(triples)
        assert turtle.parse(turtle.serialize(g)) == g


_class_edges = st.lists(
    st.tuples(
        st.sampled_from([EX.term(f"C{i}") for i in range(5)]),
        st.sampled_from([EX.term(f"C{i}") for i in range(5)]),
    ),
    max_size=10,
)
_typings = st.lists(
    st.tuples(
        st.sampled_from([EX.term(f"x{i}") for i in range(5)]),
        st.sampled_from([EX.term(f"C{i}") for i in range(5)]),
    ),
    max_size=10,
)


class TestClosureProperties:
    @given(_class_edges, _typings)
    @settings(max_examples=50, deadline=None)
    def test_closure_is_monotone_and_idempotent(self, edges, typings):
        g = Graph()
        for sub, sup in edges:
            g.add(sub, RDFS.subClassOf, sup)
        for inst, cls in typings:
            g.add(inst, RDF.type, cls)
        closed = RDFSClosure(g).graph()
        # monotone: everything asserted survives
        assert all(t in closed for t in g)
        # idempotent: closing again adds nothing
        assert RDFSClosure(closed).graph() == closed

    @given(_class_edges, _typings)
    @settings(max_examples=50, deadline=None)
    def test_type_propagation_complete(self, edges, typings):
        g = Graph()
        for sub, sup in edges:
            g.add(sub, RDFS.subClassOf, sup)
        for inst, cls in typings:
            g.add(inst, RDF.type, cls)
        closed = RDFSClosure(g).graph()
        # every instance is typed by every reachable superclass
        for inst, cls in typings:
            reachable = {cls}
            frontier = [cls]
            while frontier:
                current = frontier.pop()
                for _, _, sup in g.triples(current, RDFS.subClassOf, None):
                    if sup not in reachable:
                        reachable.add(sup)
                        frontier.append(sup)
            for sup in reachable:
                assert (inst, RDF.type, sup) in closed
