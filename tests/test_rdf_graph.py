"""Unit tests of the indexed triple store."""

import datetime
import math
from itertools import groupby
from operator import itemgetter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.rdf import Graph
from repro.rdf.graph import WALK
from repro.rdf.namespace import EX, RDFS
from repro.rdf.rdfs import RDFSClosure
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import BNode, IRI, Literal


@pytest.fixture()
def graph():
    g = Graph()
    g.add(EX.a, EX.p, EX.b)
    g.add(EX.a, EX.p, EX.c)
    g.add(EX.a, EX.q, Literal.of(5))
    g.add(EX.b, EX.p, EX.c)
    return g


class TestMutation:
    def test_add_returns_true_once(self, graph):
        assert graph.add(EX.x, EX.p, EX.y) is True
        assert graph.add(EX.x, EX.p, EX.y) is False
        assert len(graph) == 5

    def test_remove(self, graph):
        assert graph.remove(EX.a, EX.p, EX.b) is True
        assert (EX.a, EX.p, EX.b) not in graph
        assert graph.remove(EX.a, EX.p, EX.b) is False
        assert len(graph) == 3

    def test_remove_keeps_other_triples(self, graph):
        graph.remove(EX.a, EX.p, EX.b)
        assert (EX.a, EX.p, EX.c) in graph
        assert (EX.b, EX.p, EX.c) in graph

    def test_add_all_counts_inserted(self):
        g = Graph()
        n = g.add_all([(EX.a, EX.p, EX.b), (EX.a, EX.p, EX.b), (EX.a, EX.p, EX.c)])
        assert n == 2

    def test_type_validation_on_add(self, graph):
        with pytest.raises(TypeError):
            graph.add(Literal("x"), EX.p, EX.b)


class TestPatternMatching:
    def test_fully_bound(self, graph):
        assert list(graph.triples(EX.a, EX.p, EX.b)) == [(EX.a, EX.p, EX.b)]
        assert list(graph.triples(EX.a, EX.p, EX.z)) == []

    def test_spo_shapes(self, graph):
        assert len(list(graph.triples(EX.a, None, None))) == 3
        assert len(list(graph.triples(EX.a, EX.p, None))) == 2
        assert len(list(graph.triples(None, EX.p, None))) == 3
        assert len(list(graph.triples(None, EX.p, EX.c))) == 2
        assert len(list(graph.triples(None, None, EX.c))) == 2
        assert len(list(graph.triples(EX.a, None, EX.b))) == 1
        assert len(list(graph.triples(None, None, None))) == 4

    def test_missing_keys_yield_nothing(self, graph):
        assert list(graph.triples(EX.zz, None, None)) == []
        assert list(graph.triples(None, EX.zz, None)) == []
        assert list(graph.triples(None, None, EX.zz)) == []

    def test_count_matches_iteration(self, graph):
        for pattern in [
            (None, None, None),
            (EX.a, EX.p, None),
            (None, EX.p, EX.c),
            (EX.a, None, None),
        ]:
            assert graph.count(*pattern) == len(list(graph.triples(*pattern)))


class TestAccessors:
    def test_objects_subjects_predicates(self, graph):
        assert set(graph.objects(EX.a, EX.p)) == {EX.b, EX.c}
        assert set(graph.subjects(EX.p, EX.c)) == {EX.a, EX.b}
        assert set(graph.predicates(EX.a, None)) == {EX.p, EX.q}

    def test_value(self, graph):
        assert graph.value(EX.a, EX.q, None) == Literal.of(5)
        assert graph.value(EX.a, IRI("http://none"), None) is None

    def test_all_views(self, graph):
        assert EX.a in graph.all_subjects()
        assert EX.p in graph.all_predicates()
        assert Literal.of(5) in graph.all_objects()
        assert EX.c in graph.all_resources()
        assert Literal.of(5) not in graph.all_resources()


class TestSetOperations:
    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add(EX.z, EX.p, EX.z)
        assert len(clone) == len(graph) + 1

    def test_union(self, graph):
        other = Graph([(EX.z, EX.p, EX.z), (EX.a, EX.p, EX.b)])
        merged = graph.union(other)
        assert len(merged) == len(graph) + 1

    def test_equality(self, graph):
        assert graph == graph.copy()
        assert graph != Graph()

    def test_bool_and_iter(self, graph):
        assert graph
        assert not Graph()
        assert len(list(iter(graph))) == 4


# ----------------------------------------------------------------------
# copy() is built in id space (index maps and dictionary copied, nothing
# re-inserted): what either side does afterwards must stay invisible to
# the other, down to the innermost index set and the dictionary.
# ----------------------------------------------------------------------
_NODES = [EX.term(f"n{i}") for i in range(4)] + [BNode("k")]
_PREDICATES = [EX.term(f"p{i}") for i in range(3)]
_VALUES = _NODES + [Literal.of(1), Literal.of("x")]
_statements = st.tuples(st.sampled_from(_NODES), st.sampled_from(_PREDICATES),
                        st.sampled_from(_VALUES))
#: (on the copy?, add?, triple)
_writes = st.lists(st.tuples(st.booleans(), st.booleans(), _statements),
                   max_size=20)


def _observe(store):
    """What a reader can see of ``store``, index rows and ids included."""
    ids = [store.encode_term(term) for term in _PREDICATES + _VALUES]
    rows = {pi: {oi: set(subjects) for oi, subjects in store.pos_ids(pi).items()}
            for pi in ids[:len(_PREDICATES)] if pi is not None}
    return (set(store.triples()), len(store), store.predicate_counts(),
            [store.count(None, p, None) for p in _PREDICATES], rows, ids)


@pytest.mark.parametrize(
    "empty", [Graph, lambda: ShardedGraph(shards=4)], ids=["flat", "4-shard"])
@given(base=st.lists(_statements, max_size=12), writes=_writes)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_copy_and_original_never_see_each_others_writes(empty, base, writes):
    original = empty()
    original.add_all(base)
    clone = original.copy()
    assert type(clone) is type(original)
    assert clone == original
    assert _observe(clone) == _observe(original)
    sides, expected = (original, clone), [set(base), set(base)]
    for on_copy, is_add, statement in writes:
        written, other = sides[on_copy], sides[not on_copy]
        before = _observe(other)
        if is_add:
            written.add(*statement)
            expected[on_copy].add(statement)
        else:
            written.remove(*statement)
            expected[on_copy].discard(statement)
        assert _observe(other) == before
        assert set(written.triples()) == expected[on_copy]
        assert written.count() == len(expected[on_copy])


# ----------------------------------------------------------------------
# facet_counts hands out a forward counter in marker order: its POS rows
# are kept in ``dictionary.sort_keys`` order (a write that appends a
# value row marks the property, the next read re-sorts it), and a walk
# over the members' SPO rows sorts what it found.  Both must agree with
# a sorted oracle however the rows were made and emptied, and on every
# store derived before the next read.
# ----------------------------------------------------------------------
#: Values of pairwise distinct sort keys, so the oracle's order is unique.
_ORDERED = [Literal.of(2), Literal.of(-1.5), Literal.of(math.nan),
            Literal.of(0), Literal.of("b"), Literal.of("a"),
            Literal.of(datetime.date(2000, 1, 1)), Literal("a", language="en"),
            EX.term("v1"), EX.term("v0"), BNode("v")]
_SUBJECTS = [EX.term(f"s{i}") for i in range(40)]
_ROW_PREDICATES = [EX.term(f"r{i}") for i in range(3)]
#: (add?, subject, predicate, value)
_row_writes = st.lists(st.tuples(
    st.booleans(), st.sampled_from(_SUBJECTS), st.sampled_from(_ROW_PREDICATES),
    st.sampled_from(_ORDERED)), max_size=25)


def _row_store():
    """40 subjects with a value of each predicate (so one member walks
    and the class scans), ``r2`` a sub-property of ``r0``.  The values
    are every other one of ``_ORDERED``, so a write can append a value
    row that sorts between two rows the store holds."""
    store, held = Graph(), _ORDERED[::2]
    for i, subject in enumerate(_SUBJECTS):
        for j, predicate in enumerate(_ROW_PREDICATES):
            store.add(subject, predicate, held[(i * (j + 1)) % len(held)])
    store.add(_ROW_PREDICATES[2], RDFS.subPropertyOf, _ROW_PREDICATES[0])
    return store


def _write(store, writes, batched=False):
    """Each write through ``add`` / ``remove``; ``batched``, each run of
    adds through one ``add_all`` instead."""
    if not batched:
        for is_add, *statement in writes:
            (store.add if is_add else store.remove)(*statement)
        return
    for is_add, run in groupby(writes, key=itemgetter(0)):
        statements = [tuple(statement) for _, *statement in run]
        if is_add:
            store.add_all(statements)
        else:
            for statement in statements:
                store.remove(*statement)


def _assert_marker_order(store, members):
    """Every forward counter over each extension — ``members``, one
    member, every subject — equals the sorted oracle, in its order."""
    slots = [(pi, False) for pi in store.all_predicate_ids()]
    for terms in (members, _SUBJECTS[:1], _SUBJECTS):
        ids = frozenset(store.encode_terms(terms))
        counters, having = store.facet_counts(ids, slots)
        for pi, _ in slots:
            found = {}
            for si in ids:
                for oi in store.objects_ids(si, pi):
                    found[oi] = found.get(oi, 0) + 1
            expected = [(oi, found[oi]) for oi in sorted(
                found, key=lambda oi: store.decode_id(oi).sort_key())]
            assert list(counters.get((pi, False), {}).items()) == expected
            assert having.get((pi, False), 0) == sum(
                bool(store.objects_ids(si, pi)) for si in ids)


@given(interleaved=_row_writes, pending=_row_writes,
       members=st.lists(st.sampled_from(_SUBJECTS), max_size=6),
       batched=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_forward_counters_come_in_marker_order(interleaved, pending, members,
                                               batched):
    """Writes that create and empty value rows, each followed by a read,
    then writes no read follows (``batched``: each run of adds one
    ``add_all``) before the store is copied, closed and sharded: every
    forward counter, walked or scanned, is the sorted oracle's, on the
    store and on each derived store — new value rows are merged into
    place however many a read finds."""
    store = _row_store()
    assert WALK * 1 < store.count(None, _ROW_PREDICATES[0], None) \
        <= WALK * len(_SUBJECTS)  # one member walks, every subject scans
    for write in interleaved:
        _write(store, [write])
        _assert_marker_order(store, members)
    _write(store, pending, batched)
    derived = [store.copy(), RDFSClosure(store).graph(),
               ShardedGraph.from_graph(store, shards=3)]
    for each in derived + [store]:
        _assert_marker_order(each, members)
