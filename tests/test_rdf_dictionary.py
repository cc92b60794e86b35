"""Tests of the dictionary-encoded store: interning, O(1) cardinality
statistics, and the index-pruning regression (add → remove cycles must
leave the index maps unchanged)."""

from repro.rdf import Graph, TermDictionary
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import BNode, IRI, Literal


class TestTermDictionary:
    def test_encode_is_dense_and_stable(self):
        d = TermDictionary()
        a = d.encode(EX.a)
        b = d.encode(EX.b)
        assert (a, b) == (0, 1)
        assert d.encode(EX.a) == a
        assert len(d) == 2

    def test_decode_roundtrip(self):
        d = TermDictionary()
        terms = [EX.a, BNode("b1"), Literal.of(5), Literal.of("x")]
        ids = [d.encode(t) for t in terms]
        assert [d.decode(i) for i in ids] == terms

    def test_decode_returns_canonical_instance(self):
        d = TermDictionary()
        first = IRI("http://example.org/thing")
        ident = d.encode(first)
        assert d.decode(ident) is first
        # An equal-but-distinct instance maps to the same id …
        assert d.encode(IRI("http://example.org/thing")) == ident
        # … and canonical() returns the interned original.
        assert d.canonical(IRI("http://example.org/thing")) is first

    def test_lookup_never_inserts(self):
        d = TermDictionary()
        assert d.lookup(EX.a) is None
        assert len(d) == 0
        d.encode(EX.a)
        assert d.lookup(EX.a) == 0
        assert EX.a in d
        assert EX.b not in d

    def test_literals_distinct_by_datatype(self):
        d = TermDictionary()
        assert d.encode(Literal.of(5)) != d.encode(Literal("5"))


TRIPLES = [
    (EX.a, RDF.type, EX.Laptop),
    (EX.b, RDF.type, EX.Laptop),
    (EX.a, EX.price, Literal.of(700)),
    (EX.b, EX.price, Literal.of(900)),
    (EX.a, EX.madeBy, EX.acme),
]


class TestEncodedStore:
    """The store answers in terms whatever it keeps inside."""

    def test_triples_and_membership(self):
        g = Graph(TRIPLES)
        assert set(g) == set(TRIPLES)
        assert (EX.a, EX.price, Literal.of(700)) in g
        assert (EX.a, EX.price, Literal.of(800)) not in g

    def test_pattern_queries(self):
        g = Graph(TRIPLES)
        assert set(g.subjects(RDF.type, EX.Laptop)) == {EX.a, EX.b}
        assert set(g.objects(EX.a, EX.price)) == {Literal.of(700)}
        assert set(g.predicates(EX.a, None)) == {RDF.type, EX.price, EX.madeBy}

    def test_counts(self):
        g = Graph(TRIPLES)
        assert g.count() == 5
        assert g.count(None, RDF.type, None) == 2
        assert g.count(None, RDF.type, EX.Laptop) == 2
        assert g.count(EX.a, EX.price, None) == 1
        assert g.count(None, EX.nope, None) == 0

    def test_copy_is_an_equal_independent_store(self):
        g = Graph(TRIPLES)
        twin = g.copy()
        assert isinstance(twin.dictionary, TermDictionary)
        assert set(twin) == set(TRIPLES)
        twin.add(EX.c, RDF.type, EX.Laptop)
        assert len(g) == 5


class TestCardinalityStats:
    def test_predicate_counts_maintained_incrementally(self):
        g = Graph(TRIPLES)
        assert g.predicate_counts() == {RDF.type: 2, EX.price: 2, EX.madeBy: 1}
        g.remove(EX.a, EX.price, Literal.of(700))
        assert g.count(None, EX.price, None) == 1
        g.remove(EX.b, EX.price, Literal.of(900))
        assert g.count(None, EX.price, None) == 0
        assert EX.price not in g.predicate_counts()

    def test_counts_match_brute_force(self, products):
        for p in set(products.all_predicates()):
            brute = sum(1 for _ in products.triples(None, p, None))
            assert products.count(None, p, None) == brute
            for o in set(products.objects(None, p)):
                brute_po = sum(1 for _ in products.triples(None, p, o))
                assert products.count(None, p, o) == brute_po

    def test_generation_bumps_only_on_real_mutation(self):
        g = Graph()
        start = g.generation
        assert g.add(EX.a, EX.p, EX.b)
        assert g.generation == start + 1
        assert not g.add(EX.a, EX.p, EX.b)  # duplicate: no-op
        assert g.generation == start + 1
        assert not g.remove(EX.a, EX.p, EX.c)  # absent: no-op
        assert g.generation == start + 1
        assert g.remove(EX.a, EX.p, EX.b)
        assert g.generation == start + 2


def _index_snapshot(g):
    import copy

    return (copy.deepcopy(g._spo), copy.deepcopy(g._pos),
            dict(g._pred_count))


def _assert_no_empty_slots(g):
    for index in (g._spo, g._pos):
        for outer, inner in index.items():
            assert inner, f"empty nested dict left at {outer!r}"
            for key, leaf in inner.items():
                assert leaf, f"empty leaf set left at {outer!r}/{key!r}"


class TestIndexPruning:
    """Regression: remove() must prune emptied nested slots, so the
    temp-class device's add → remove cycles leave the maps unchanged."""

    def test_add_remove_cycle_restores_indexes_exactly(self):
        g = Graph(TRIPLES)
        before = _index_snapshot(g)
        for cycle in range(3):
            for s, p, o in TRIPLES:
                g.add(s, RDF.type, EX.temp)
            for s, p, o in TRIPLES:
                g.remove(s, RDF.type, EX.temp)
            assert _index_snapshot(g) == before
        _assert_no_empty_slots(g)

    def test_removing_everything_empties_the_maps(self):
        g = Graph(TRIPLES)
        for s, p, o in list(g):
            g.remove(s, p, o)
        assert len(g) == 0
        assert g._spo == {} and g._pos == {}
        assert g._pred_count == {}

    def test_partial_removal_shrinks_maps(self):
        g = Graph()
        g.add(EX.a, EX.p, EX.b)
        g.add(EX.a, EX.q, EX.b)
        g.remove(EX.a, EX.p, EX.b)
        _assert_no_empty_slots(g)
        # The emptied EX.p rows are gone from both permutations.
        pi = g.encode_term(EX.p)
        ai = g.encode_term(EX.a)
        assert pi not in g.spo_ids(ai)
        assert pi not in g._pos
        assert set(g.triples(None, None, EX.b)) == {(EX.a, EX.q, EX.b)}

    def test_sparql_facet_engine_never_touches_the_indexes(self, products):
        """The temp-class queries run over a view: the store's index
        maps, statistics, dictionary size and generation are untouched
        — also for members the dictionary has never seen."""
        from repro.facets.sparql_backend import SparqlFacetEngine

        before = _index_snapshot(products)
        generation, terms = products.generation, len(products.dictionary)
        subjects = list(products.all_subjects())[:10] + [EX.neverInterned]
        engine = SparqlFacetEngine(products)
        assert engine.extension_of_temp(subjects) == set(subjects)
        engine.class_counts(subjects)
        engine.all_facets(subjects)
        assert _index_snapshot(products) == before
        assert products.generation == generation
        assert len(products.dictionary) == terms
