"""Property-based tests of the RDF substrate (hypothesis).

Invariants: index consistency under arbitrary add/remove interleavings,
serialization round-trips, closure monotonicity and idempotence.
"""

import functools

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF, RDFS
from repro.rdf.overlay import ExtensionView
from repro.rdf.rdfs import RDFSClosure
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import BNode, IRI, Literal
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


#: Tier-1 runs the access-shape property derandomized at its own size;
#: ``make fuzz`` loads the ``fuzz`` profile (tests/conftest.py) for a
#: long run at a random seed.
_FUZZING = settings.get_current_profile_name() == "fuzz"

_nodes = st.sampled_from(
    [EX.term(f"s{i}") for i in range(4)] + [BNode("b0"), BNode("b1")])
#: ``rdf:type`` among them, so an extension view's class joins base rows.
_edge_predicates = st.sampled_from(
    [EX.term(f"p{i}") for i in range(3)] + [RDF.type])
_interleavings = st.lists(
    st.tuples(_nodes, _edge_predicates, st.one_of(_nodes, _objects)),
    min_size=1, max_size=10,
).flatmap(lambda pool: st.tuples(st.just(pool), st.lists(
    st.tuples(st.booleans(), st.integers(0, len(pool) - 1)), max_size=30)))
_LAYOUTS = (Graph, functools.partial(ShardedGraph, shards=4))


def _assert_no_empty_slots(g):
    """No empty nested dict, and every leaf row in its one shape: an
    SPO row is a bare id exactly when it holds one object (the id may
    be 0) and a set of two or more otherwise; a POS row is a non-empty
    set."""
    for piece in getattr(g, "shards", (g,)):
        for row in piece._spo.values():
            assert row
            for objects in row.values():
                assert type(objects) is int or (
                    type(objects) is set and len(objects) >= 2), objects
        for row in piece._pos.values():
            assert row
            for subjects in row.values():
                assert type(subjects) is set and subjects, subjects
        assert all(piece._pred_count.values())
    assert all(g._pred_count.values())


def _assert_id_reads_match_oracle(g, oracle, probes):
    """The id reads of a bound subject and predicate (``objects_ids``,
    ``in``, ``count_ids(s, None, o)``), on the store and on its copy,
    and an extension view's ``objects_ids`` over every subject in the
    probes, against a set of triples."""
    twin = g.copy()
    _assert_no_empty_slots(twin)
    assert set(twin.triples()) == oracle
    nodes = {s for s, _, _ in probes}
    view = ExtensionView(g, EX.temp, nodes)
    type_id, temp_id = view.encode_term(RDF.type), view.encode_term(EX.temp)
    for s, p, o in probes:
        assert ((s, p, o) in g) == ((s, p, o) in oracle)
        si, pi, oi = (g.encode_term(term) for term in (s, p, o))
        if si is None:
            continue
        if oi is not None:
            assert g.count_ids(si, None, oi) == sum(
                t[0] == s and t[2] == o for t in oracle)
        if pi is None:
            continue
        expected = {t[2] for t in oracle if t[:2] == (s, p)}
        for store in (g, twin):
            objects = store.objects_ids(si, pi)
            assert len(objects) == len(expected)
            assert {store.decode_id(i) for i in objects} == expected
            if oi is not None:
                assert (oi in objects) == (o in expected)
    for s in nodes:
        typed = {t[2] for t in oracle if t[:2] == (s, RDF.type)}
        objects = view.objects_ids(view.encode_term(s), type_id)
        assert temp_id in objects
        assert len(objects) == len(typed) + 1
        assert {view.decode_id(i) for i in objects} == typed | {EX.temp}


def _assert_matches_oracle(g, oracle, probes):
    """Every access shape over the slots of each probe triple (all eight
    masks), and the whole-graph views, against a set of triples."""
    for probe in probes:
        for mask in range(8):
            pattern = tuple(term if mask >> slot & 1 else None
                            for slot, term in enumerate(probe))
            expected = {t for t in oracle
                        if all(want is None or want == got
                               for want, got in zip(pattern, t))}
            assert set(g.triples(*pattern)) == expected, pattern
            assert g.count(*pattern) == len(expected), pattern
    objects = {o for _, _, o in oracle}
    assert g.all_objects() == objects
    assert g.all_resources() == {s for s, _, _ in oracle} | {
        o for o in objects if isinstance(o, (IRI, BNode))}
    assert len(g) == len(oracle)


_SELF_LOOP = (EX.s0, EX.p0, EX.s0)  # s0 is interned first: id 0
_ONE_TWO_ONE_NONE = ([(EX.s0, EX.p0, EX.s1), (EX.s0, EX.p0, EX.s2)],
                     [(True, 0), (True, 1), (False, 0), (False, 1)])


class TestAccessShapesUnderWrites:
    @given(_interleavings, st.sampled_from(_LAYOUTS))
    @example(([_SELF_LOOP], [(True, 0), (False, 0)]), _LAYOUTS[0])
    @example(([_SELF_LOOP], [(True, 0), (False, 0)]), _LAYOUTS[1])
    @example(_ONE_TWO_ONE_NONE, _LAYOUTS[0])
    @example(_ONE_TWO_ONE_NONE, _LAYOUTS[1])
    @settings(derandomize=not _FUZZING, deadline=None,
              max_examples=10_000 if _FUZZING else 60)
    def test_every_shape_matches_a_set_oracle(self, interleaving, layout):
        pool, steps = interleaving
        g, oracle = layout(), set()
        for is_add, index in steps:
            t = pool[index]
            if is_add:
                assert g.add(*t) == (t not in oracle)
                oracle.add(t)
            else:
                assert g.remove(*t) == (t in oracle)
                oracle.discard(t)
            _assert_matches_oracle(g, oracle, pool)
            _assert_no_empty_slots(g)
            _assert_id_reads_match_oracle(g, oracle, pool)


class TestSerializationRoundtrips:
    @given(_triple_lists)
    @settings(max_examples=50, deadline=None)
    def test_ntriples_roundtrip(self, triples):
        g = Graph(triples)
        assert Graph(ntriples.parse(ntriples.serialize(g))) == g

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
