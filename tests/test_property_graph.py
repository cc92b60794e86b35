"""Property-based tests of the RDF substrate (hypothesis).

Invariants: index consistency under arbitrary add/remove interleavings,
serialization round-trips, closure monotonicity and idempotence.
"""

import functools
from collections import Counter
from itertools import groupby
from operator import itemgetter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.rdf import Graph
from repro.rdf.bulkload import load_ntriples
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


def _assert_statistics(g, oracle, pool, generation):
    """The write path's own counts against a set of triples:
    ``predicate_counts()``, ``count_ids(None, p, None)`` of every
    predicate in the pool, and the generation expected."""
    counts = Counter(p for _, p, _ in oracle)
    assert g.predicate_counts() == counts
    for _, p, _ in pool:
        pi = g.encode_term(p)  # None: never interned, never held
        assert (0 if pi is None else g.count_ids(None, pi, None)) == counts[p]
    assert g.generation == generation


_SELF_LOOP = (EX.s0, EX.p0, EX.s0)  # s0 is interned first: id 0
_ONE_TWO_ONE_NONE = ([(EX.s0, EX.p0, EX.s1), (EX.s0, EX.p0, EX.s2)],
                     [(True, 0), (True, 1), (False, 0), (False, 1)])


class TestAccessShapesUnderWrites:
    @given(_interleavings, st.sampled_from(_LAYOUTS), st.booleans())
    @example(([_SELF_LOOP], [(True, 0), (False, 0)]), _LAYOUTS[0], False)
    @example(([_SELF_LOOP], [(True, 0), (False, 0)]), _LAYOUTS[1], False)
    @example(_ONE_TWO_ONE_NONE, _LAYOUTS[0], False)
    @example(_ONE_TWO_ONE_NONE, _LAYOUTS[1], False)
    @example(_ONE_TWO_ONE_NONE, _LAYOUTS[0], True)
    @settings(derandomize=not _FUZZING, deadline=None,
              max_examples=10_000 if _FUZZING else 60)
    def test_every_shape_matches_a_set_oracle(self, interleaving, layout,
                                              batched):
        """Every access shape after every write, against a set oracle,
        the write path's statistics too: ``predicate_counts()`` and
        ``count_ids(None, p, None)`` are the oracle's, and ``generation``
        rose by exactly the number of triples a write inserted or
        removed.  ``batched``, each run of adds is one ``add_all``."""
        pool, steps = interleaving
        g, oracle = layout(), set()
        writes = []  # (add?, the triples of one add/add_all/remove call)
        for is_add, run in groupby(steps, key=itemgetter(0)):
            triples = [pool[index] for _, index in run]
            if is_add and batched:
                writes.append((True, triples))
            else:
                writes += [(is_add, [t]) for t in triples]
        for is_add, triples in writes:
            generation = g.generation
            if is_add:
                fresh = set(triples) - oracle
                assert (g.add_all(triples) if batched
                        else int(g.add(*triples[0]))) == len(fresh)
                oracle |= fresh
                changed = len(fresh)
            else:
                (t,) = triples
                changed = int(t in oracle)
                assert g.remove(*t) == bool(changed)
                oracle.discard(t)
            _assert_statistics(g, oracle, pool, generation + changed)
            _assert_matches_oracle(g, oracle, pool)
            _assert_no_empty_slots(g)
            _assert_id_reads_match_oracle(g, oracle, pool)


def _multi_valued(g):
    """Per predicate id, the subjects whose SPO row holds two or more
    objects, recounted from the rows (a lone object is a bare id)."""
    counts = {}
    for row in g._spo.values():
        for pi, objects in row.items():
            if type(objects) is not int and len(objects) >= 2:
                counts[pi] = counts.get(pi, 0) + 1
    return counts


def _assert_multi_counts(g):
    """The store's count, slice by slice, equals the recount; a sharded
    store's roll-up holds none of its own."""
    for piece in getattr(g, "shards", (g,)):
        assert {pi: n for pi, n in piece._multi_count.items() if n} \
            == _multi_valued(piece)
    if hasattr(g, "shards"):  # the roll-up's own index maps stay empty
        assert not any(g._multi_count.values())


def _assert_having_is_the_union(g, ids):
    """Every forward ``facet_counts`` having-count over ``ids`` is the
    size of the union of the marker sets."""
    slots = [(pi, False) for pi in g.all_predicate_ids()]
    counters, having = g.facet_counts(ids, slots)
    for pi, _ in slots:
        union = set().union(*(ids & subjects
                              for subjects in g.pos_ids(pi).values()))
        assert having.get((pi, False), 0) == len(union), pi
        assert sum(counters.get((pi, False), {}).values()) >= len(union)


def _reloaded(g):
    """``g`` written as N-Triples and bulk-loaded back."""
    return load_ntriples(ntriples.serialize(g).splitlines())[0]


#: s0 has two p0 values: a having-count summed over the markers says 2.
_TWO_VALUES = ([(EX.s0, EX.p0, EX.s1), (EX.s0, EX.p0, EX.s2)],
               [(True, 0), (True, 1)])
#: Few subjects, predicates and objects: rows are promoted to sets and
#: demoted back all the time.
_crowded_interleavings = st.lists(
    st.tuples(st.sampled_from([EX.s0, BNode("b0")]),
              st.sampled_from([EX.p0, RDF.type]),
              st.sampled_from([EX.s0, EX.s1, BNode("b0"), Literal.of(0)])),
    min_size=1, max_size=8,
).flatmap(lambda pool: st.tuples(st.just(pool), st.lists(
    st.tuples(st.booleans(), st.integers(0, len(pool) - 1)), max_size=30)))


class TestMultiValuedSubjectCount:
    """The per-predicate count of subjects with two or more values — what
    lets ``facet_counts`` sum its marker counts instead of building the
    union — under writes and through every way a store is derived."""

    @given(_crowded_interleavings, st.sampled_from(_LAYOUTS), st.data())
    @example(_TWO_VALUES, _LAYOUTS[0], None)
    @example(_TWO_VALUES, _LAYOUTS[1], None)
    @example(_ONE_TWO_ONE_NONE, _LAYOUTS[0], None)
    @settings(derandomize=not _FUZZING, deadline=None,
              max_examples=10_000 if _FUZZING else 60)
    def test_the_count_and_having_follow_every_write(self, interleaving,
                                                     layout, data):
        pool, steps = interleaving
        g = layout()
        for is_add, index in steps:
            (g.add if is_add else g.remove)(*pool[index])
            _assert_multi_counts(g)
        subject_ids = sorted(g.all_subject_ids())
        drawn = (subject_ids if data is None else data.draw(
            st.lists(st.sampled_from(subject_ids), unique=True)
            if subject_ids else st.just([])))
        derived = [g, g.copy(), RDFSClosure(g).graph(),
                   _reloaded(g), ShardedGraph.from_graph(g, shards=3)]
        for store in derived:
            _assert_multi_counts(store)
            ids = frozenset(store.encode_terms(g.decode_ids(drawn)))
            for piece in (store, *getattr(store, "shards", ())):
                _assert_having_is_the_union(piece, ids)


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
