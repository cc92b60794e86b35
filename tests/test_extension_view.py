"""The session-private extension overlay: reads that write nothing.

Two contracts.  (1) :class:`~repro.rdf.overlay.ExtensionView` is
indistinguishable — through the id protocol the SPARQL evaluator reads
every store with (``triples_ids``, ``count_ids``, ``len``), through
``query()`` answers, and to the join planner — from a copy of the store
with the ``rdf:type :temp`` triples really added, on the flat store and
on every shard count.  (2) Because the pipeline now evaluates over that view, a
``run("sparql")`` or a :class:`SparqlFacetEngine` operation leaves the
store's generation, size and statistics alone, so the caches stamped
with them hit — per session, never across extensions.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets import invoices_graph, products_graph
from repro.facets import FacetedAnalyticsSession
from repro.facets.sparql_backend import TEMP, SparqlFacetEngine
from repro.hifun.translator import translate
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.overlay import ExtensionView, ReadOnlyViewError
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import BNode, Literal
from repro.sparql import ast, parse_query, query
from repro.sparql.evaluator import _pattern_selectivity, plan_block

from tests.test_analysis_consistency import (
    SECTION_5_1_SESSIONS,
    _load_bench,
    section_5_1_session,
)
from tests.test_chaos_facets import fingerprint

# -- view ≡ materialized copy ------------------------------------------
_NODES = [EX.term(f"n{i}") for i in range(6)] + [BNode("b0")]
_CLASSES = [EX.Thing, EX.Other, TEMP]
_LITERALS = [Literal.of(1), Literal.of("one")]
_UNSEEN = EX.neverInterned
_PREDICATES = [EX.p, EX.q, RDF.type]

_triples = st.lists(st.one_of(
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q]),
              st.sampled_from(_NODES + _LITERALS)),
    # typing triples — some of them already under the temporary class
    st.tuples(st.sampled_from(_NODES), st.just(RDF.type),
              st.sampled_from(_CLASSES)),
), max_size=25)
_members = st.sets(st.sampled_from(_NODES + _LITERALS + [_UNSEEN]))

_PROBES = list(itertools.product(
    [None, _UNSEEN] + _NODES,
    [None, EX.unusedPredicate] + _PREDICATES,
    [None, _NODES[1], _LITERALS[0]] + _CLASSES,
))


def _stores(triples):
    flat = Graph(triples)
    yield flat
    for shards in (1, 2, 4):
        yield ShardedGraph.from_graph(flat, shards=shards)


def _encoded(store, pattern):
    """``pattern`` in ``store``'s ids, or ``None`` when it names a term
    the store never saw (such a pattern matches nothing)."""
    ids = [None if t is None else store.encode_term(t) for t in pattern]
    if any(i is None and t is not None for i, t in zip(ids, pattern)):
        return None
    return ids


def _decoded(store, ids):
    return sorted((tuple(map(store.decode_id, t))
                   for t in store.triples_ids(*ids)), key=_triple_key)


#: Queries over the temporary class, a plain block, a path whose walk
#: crosses into the virtual triples and back, and ``ASK``.
_QUERIES = [
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    f"SELECT ?x ?y WHERE {{ ?x a <{TEMP.value}> . ?x <{EX.p.value}> ?y }}",
    f"SELECT ?x WHERE {{ ?x a/^a <{EX.n1.value}> }}",
    f"SELECT ?s ?o WHERE {{ ?s (<{EX.p.value}>|a)* ?o }}",
    f"SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ?c . ?y a ?c }}",
    f"ASK {{ <{EX.n0.value}> a <{TEMP.value}> }}",
]


def _answer(store, text):
    result = query(store, text)
    if isinstance(result, bool):
        return result
    return sorted(tuple(sorted(row.items())) for row in result)


@given(_triples, _members)
@settings(max_examples=40, deadline=None)
def test_view_equals_materialized_copy(triples, members):
    """Through the evaluator's protocol — ``triples_ids`` decoded,
    ``count_ids``, ``len`` — and through ``query()`` answers, a view is
    the copy with the ``rdf:type :temp`` triples really added."""
    for base in _stores(triples):
        real = base.copy()
        real.add_all((m, RDF.type, TEMP) for m in members
                     if not isinstance(m, Literal))
        size, generation = len(base), base.generation
        view = ExtensionView(base, TEMP, members)

        assert len(view) == len(real)
        assert view.generation == generation
        for pattern in _PROBES:
            ids, real_ids = _encoded(view, pattern), _encoded(real, pattern)
            if ids is None:
                assert real_ids is None or real.count_ids(*real_ids) == 0
                continue
            # sorted lists, not sets: a member the base already types
            # under the class must not come back twice
            assert _decoded(view, ids) == sorted(real.triples(*pattern),
                                                 key=_triple_key)
            assert view.count_ids(*ids) == real.count(*pattern)
        for text in _QUERIES:
            assert _answer(view, text) == _answer(real, text)
        assert (len(base), base.generation) == (size, generation)


def _view_order(view, ids):
    """The order a view answers in: the base's matches in the base's
    order, then the virtual triples that match."""
    virtual = [(m, view.encode_term(RDF.type), view.encode_term(view.cls))
               for m in view.members]
    return list(view.base.triples_ids(*ids)) + [
        t for t in virtual
        if all(want is None or want == have for want, have in zip(ids, t))]


@given(_triples, _members)
@settings(max_examples=40, deadline=None)
def test_triples_ids_is_the_encoded_triples(triples, members):
    """On all eight pattern shapes, over the flat store, three shards
    and a view: ``triples_ids`` yields each encoded matching triple once
    — checked against a filter over the triples put in — in the order of
    a store's ``triples`` and, on a view, the base's order followed by
    the virtual triples; a pattern with a term the store never saw
    matches nothing either way."""
    flat = Graph(triples)
    typed = {(m, RDF.type, TEMP) for m in members if not isinstance(m, Literal)}
    for store, truth in ((flat, set(triples)),
                         (ShardedGraph.from_graph(flat, shards=3), set(triples)),
                         (ExtensionView(flat, TEMP, members), set(triples) | typed)):
        for pattern in _PROBES:
            matching = [t for t in truth
                        if all(want is None or want == have
                               for want, have in zip(pattern, t))]
            ids = _encoded(store, pattern)
            if ids is None:
                assert matching == []
                continue
            found = list(store.triples_ids(*ids))
            assert sorted(found) == sorted(
                tuple(map(store.encode_term, t)) for t in matching)
            if isinstance(store, ExtensionView):
                assert found == _view_order(store, ids)
            else:
                assert found == [tuple(map(store.encode_term, t))
                                 for t in store.triples(*pattern)]


def _triple_key(t):
    return tuple(term.sort_key() for term in t)


def test_view_refuses_writes_with_a_typed_error():
    graph = Graph([(EX.a, EX.p, EX.b)])
    view = ExtensionView(graph, TEMP, [EX.a])
    with pytest.raises(ReadOnlyViewError):
        view.add(EX.a, EX.p, EX.c)
    with pytest.raises(ReadOnlyViewError):
        view.remove(EX.a, EX.p, EX.b)
    assert len(graph) == 1 and graph.generation == 1


# -- the join planner cannot tell the difference -------------------------
def _triple_patterns(group):
    for child in group.children:
        if isinstance(child, ast.TriplePattern):
            yield child
        elif isinstance(child, ast.GroupPattern):
            yield from _triple_patterns(child)
        elif isinstance(child, (ast.Optional_, ast.Minus)):
            yield from _triple_patterns(child.pattern)
        elif isinstance(child, ast.Union):
            yield from _triple_patterns(child.left)
            yield from _triple_patterns(child.right)
        elif isinstance(child, ast.SubSelect):
            yield from _triple_patterns(child.query.where)


def _assert_same_plan(text, base, extension):
    real = base.copy()
    real.add_all((x, RDF.type, TEMP) for x in extension)
    view = ExtensionView(base, TEMP, extension)
    block = list(_triple_patterns(parse_query(text).where))
    assert any(tp.o == TEMP for tp in block)
    for bound in (set(), {"x"}):
        for tp in block:
            assert (_pattern_selectivity(tp, bound, view)
                    == _pattern_selectivity(tp, bound, real))
        assert plan_block(block, bound, view) == plan_block(block, bound, real)


def test_plan_order_on_section_4_2_translations():
    graph = invoices_graph()
    invoices = set(graph.subjects(RDF.type, EX.Invoice))
    for _name, query in _load_bench("bench_translation_examples").EXAMPLES:
        _assert_same_plan(translate(query, root_class=TEMP).text,
                          graph, invoices)


@pytest.mark.parametrize("which", SECTION_5_1_SESSIONS)
def test_plan_order_on_section_5_1_translations(which):
    session = section_5_1_session(which)
    _assert_same_plan(session.translation().text, session.graph,
                      session.extension)


# -- reads are read-only, so the caches hit -------------------------------
def _pressed(graph, *clicks):
    session = FacetedAnalyticsSession(graph, closed=True)
    session.select_class(EX.Laptop)
    for path, value in clicks:
        session.select_value(path, value)
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), "AVG")
    return session


@pytest.fixture
def closed_products():
    return FacetedAnalyticsSession(products_graph()).graph


def test_run_and_every_engine_op_leave_the_store_alone(closed_products):
    graph = closed_products
    before = fingerprint(graph)
    session = _pressed(graph)
    assert session.run("sparql").rows == session.run("native").rows
    assert fingerprint(graph) == before

    engine = SparqlFacetEngine(graph)
    extension = session.extension
    path = (session.applicable_properties()[0],)
    for operation in (
        lambda: engine.extension_of_temp(extension),
        lambda: engine.joins(extension, path),
        lambda: engine.restrict(extension, path, EX.DELL),
        lambda: engine.restrict_to_class(extension, EX.Laptop),
        lambda: engine.class_counts(extension),
        lambda: engine.facet(extension, path),
        lambda: engine.all_facets(extension),
    ):
        operation()
        assert fingerprint(graph) == before


def test_repeated_run_and_listing_are_cache_hits(closed_products):
    session = _pressed(closed_products)
    listing = session.all_facets()
    first = session.run("sparql")
    stats = session.cache_stats()
    assert (stats["answers"].hits, stats["answers"].misses) == (0, 1)

    assert session.run("sparql").rows == first.rows
    assert session.all_facets() == listing
    after = session.cache_stats()
    assert (after["answers"].hits, after["answers"].misses) == (1, 1)
    assert after["facets"].hits == stats["facets"].hits + 1
    assert after["facets"].invalidations == after["answers"].invalidations == 0


def test_result_cache_counters_survive_state_changes(closed_products):
    """Each state has its own view and its own answers, and finds both
    again after ``back()``; the counters reported for the session are
    those of every lookup it made — on the popped state too — so they
    never fall, and the size is what the live history holds."""
    session = _pressed(closed_products)
    session.run("sparql")
    session.run("sparql")
    view = session._extension_view()
    session.select_value((EX.manufacturer,), EX.DELL)
    kept = session.cache_stats()["answers"]
    assert (kept.hits, kept.misses) == (1, 1)
    session.run("sparql")
    assert session._extension_view() is not view
    session.back()
    assert session._extension_view() is view
    session.run("sparql")
    stats = session.cache_stats()["answers"]
    assert (stats.hits, stats.misses) == (2, 2)
    assert stats.size == stats.maxsize == 1  # the live state's one answer
    # The sparql line is the store's cache alone, as in the base session.
    assert session.cache_stats()["sparql"] == closed_products.sparql_cache.stats()


def test_a_write_between_two_runs_makes_both_caches_miss(closed_products):
    graph = closed_products
    session = _pressed(graph)
    session.all_facets()
    first = session.run("sparql")
    graph.add(EX.laptopX, RDF.type, EX.Laptop)  # not in this extension
    before = session.cache_stats()
    assert session.run("sparql").rows == first.rows
    session.all_facets()
    after = session.cache_stats()
    assert after["answers"].hits == before["answers"].hits == 0
    assert after["answers"].invalidations == before["answers"].invalidations + 1
    assert after["facets"].hits == before["facets"].hits
    assert after["facets"].invalidations == before["facets"].invalidations + 1


def test_interleaved_sessions_never_share_an_answer(closed_products):
    """Same button state, hence byte-identical query text, on one graph
    — but different extensions: each session gets its own answer."""
    graph = closed_products
    dell = _pressed(graph, ((EX.manufacturer,), EX.DELL))
    everyone = _pressed(graph)
    assert dell.translation().text == everyone.translation().text
    assert dell.extension < everyone.extension
    # (the expected answers come from fresh sessions, so the counters
    # of these two count their sparql runs alone)
    dell_click = ((EX.manufacturer,), EX.DELL)
    expected = {id(dell): _pressed(graph, dell_click).run("native").rows,
                id(everyone): _pressed(graph).run("native").rows}
    assert expected[id(dell)] != expected[id(everyone)]
    for session in (dell, everyone, dell, everyone, everyone, dell):
        assert session.run("sparql").rows == expected[id(session)]
    assert graph.sparql_cache.stats().size == 0
    for session in (dell, everyone):
        stats = session.cache_stats()["answers"]
        assert (stats.hits, stats.misses) == (2, 1)
