"""Unit tests of the indexed triple store."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.rdf import Graph
from repro.rdf.namespace import EX
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
