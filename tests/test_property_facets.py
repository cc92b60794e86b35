"""Property-based tests of the interaction model.

The central invariant of the faceted-search model (§5.2.1): for every
reachable state, *the intention compiled to SPARQL evaluates to exactly
the extension*, and no offered transition ever empties the result set.
Random click sequences over a random synthetic KG exercise this.
"""

import datetime
import math

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedSession
from repro.facets.intentions import PathRangeCondition
from repro.facets.model import PropertyRef
from repro.hifun.query import COMPARATORS
from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import BNode, Literal, XSD_GYEAR, XSD_INTEGER
from repro.sparql import query as sparql
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import comparison


def random_walk(session, decisions):
    """Apply a decision list as clicks on whatever the UI offers."""
    for kind, pick_a, pick_b in decisions:
        if kind == 0:
            markers = session.class_markers()
            if not markers:
                continue
            session.select_class(markers[pick_a % len(markers)].cls)
        elif kind == 1:
            facets = session.all_facets()
            if not facets:
                continue
            facet = facets[pick_a % len(facets)]
            if not facet.values:
                continue
            marker = facet.values[pick_b % len(facet.values)]
            session.select_value(facet.path, marker.value)
        elif kind == 2:
            facets = [
                f for f in session.all_facets()
                if f.values and isinstance(f.values[0].value, Literal)
                and f.values[0].value.is_numeric()
            ]
            if not facets:
                continue
            facet = facets[pick_a % len(facets)]
            values = sorted(
                (v.value.to_python() for v in facet.values), key=float
            )
            threshold = values[pick_b % len(values)]
            session.select_range(facet.path, ">=", Literal.of(threshold))
        else:
            session.back()


_decisions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=6,
)


@given(decisions=_decisions, seed=st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_intention_always_matches_extension(decisions, seed):
    graph = synthetic_graph(SyntheticConfig(
        laptops=30, companies=5, countries=4, continents=2,
        drives_per_laptop_pool=8, seed=seed,
    ))
    session = FacetedSession(graph)
    random_walk(session, decisions)
    result = sparql(session.graph, session.state.intention.to_sparql())
    assert {row["x"] for row in result} == set(session.extension)


@given(decisions=_decisions, seed=st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_offered_transitions_never_empty(decisions, seed):
    """Every class marker and facet value offered by a reached state
    leads to a non-empty extension (the never-empty-results guarantee)."""
    graph = synthetic_graph(SyntheticConfig(
        laptops=25, companies=4, countries=3, continents=2,
        drives_per_laptop_pool=6, seed=seed,
    ))
    session = FacetedSession(graph)
    random_walk(session, decisions)
    for marker in session.class_markers():
        assert marker.count > 0
    for facet in session.all_facets():
        for value in facet.values:
            assert value.count > 0
            survivors = session.select_value(facet.path, value.value)
            assert len(survivors.extension) > 0
            session.back()


@given(decisions=_decisions, seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_back_returns_to_exact_previous_state(decisions, seed):
    graph = synthetic_graph(SyntheticConfig(laptops=20, seed=seed))
    session = FacetedSession(graph)
    random_walk(session, decisions)
    history = session.history()
    if len(history) < 2:
        return
    before = history[-2]
    session.back()
    assert session.state is before


_members = st.sampled_from(
    [EX.term(f"n{i}") for i in range(4)] + [BNode("b0"), BNode("b1")]
    + [Literal.of(i) for i in range(2)])
_kg = st.lists(
    st.tuples(_members.filter(lambda t: not isinstance(t, Literal)),
              st.sampled_from([EX.p, EX.q, EX.r]), _members),
    min_size=1, max_size=16,
).map(Graph)


@given(graph=_kg, results=st.lists(_members, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_inverse_discovery_equals_listing(graph, results):
    """applicable_properties(include_inverse=True) on a fresh session —
    the discovery path, no listing to read — offers exactly the
    properties of the listing, inverse ones included, over extensions
    that mix IRIs, blank nodes and literals."""
    discovered = FacetedSession(graph, results=results).applicable_properties(
        include_inverse=True)
    listed = FacetedSession(graph, results=results).all_facets(
        include_inverse=True)
    assert discovered == [facet.prop for facet in listed]


@given(seed=st.integers(min_value=0, max_value=9))
@settings(max_examples=10, deadline=None)
def test_facet_counts_sum_to_extension_coverage(seed):
    """For a single-valued facet, the value counts sum to the number of
    extension objects carrying the property."""
    graph = synthetic_graph(SyntheticConfig(laptops=40, seed=seed))
    session = FacetedSession(graph)
    session.select_class(EX.Laptop)
    facet = session.facet((EX.manufacturer,))
    assert sum(v.count for v in facet.values) == facet.count == 40


# -- marker order and numeric ranges over mixed terms ------------------------
_mixed = st.one_of(
    st.integers(-60, 60).map(Literal.of),
    st.decimals(-60, 60, places=2, allow_nan=False).map(Literal.of),
    st.one_of(st.floats(-60, 60), st.just(math.nan)).map(Literal.of),
    st.booleans().map(Literal.of),
    st.dates(datetime.date(1999, 1, 1), datetime.date(2001, 1, 1)).map(
        Literal.of),
    st.datetimes(datetime.datetime(1999, 1, 1),
                 datetime.datetime(2001, 1, 1)).map(Literal.of),
    st.sampled_from(["1999", "2000"]).map(lambda y: Literal(y, XSD_GYEAR)),
    st.sampled_from(["abc", "1e"]).map(lambda t: Literal(t, XSD_INTEGER)),
    st.sampled_from(["chat", "Chat"]).map(lambda t: Literal(t, language="fr")),
    st.sampled_from(["chat", "7"]).map(Literal.of),
    st.sampled_from([EX.term(f"v{i}") for i in range(3)]),
    st.sampled_from([BNode("v0"), BNode("v1")]),
)


def _mixed_graph(values):
    """Five things, each of a kind, linked in a ring, holding the drawn
    values round-robin (so a thing may hold several)."""
    graph = Graph()
    for i in range(5):
        thing = EX.term(f"s{i}")
        graph.add(thing, RDF.type, EX.Thing)
        graph.add(thing, EX.kind, EX.term(f"k{i % 2}"))
        graph.add(thing, EX.link, EX.term(f"s{(i + 1) % 5}"))
    for i, value in enumerate(values):
        graph.add(EX.term(f"s{i % 5}"), EX.value, value)
    return graph


def _assert_in_sort_key_order(facets):
    """No two neighbouring markers out of ``Term.sort_key()`` order.
    (NaN compares false with every number, so a NaN marker agrees with
    either neighbour; a sort of fewer than 64 keys leaves every pair of
    neighbours in order.)"""
    for facet in facets:
        keys = [marker.value.sort_key() for marker in facet.values]
        assert len(keys) < 64
        assert not any(b < a for a, b in zip(keys, keys[1:])), facet


@given(values=st.lists(_mixed, min_size=1, max_size=14),
       later=st.lists(_mixed, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
@example(values=[Literal.of(1), Literal.of(math.nan), Literal.of(0)],
         later=[Literal.of(math.nan)])
def test_markers_come_in_sort_key_order(values, later):
    """The markers of a listing, a child state's too, of a single facet
    and of a path expansion are in ``Term.sort_key()`` order — also
    after terms the store never saw are interned."""
    session = FacetedSession(_mixed_graph(values))
    for _ in range(2):
        _assert_in_sort_key_order(session.all_facets(include_inverse=True))
        session.select_value(EX.kind, EX.k0)
        _assert_in_sort_key_order(session.all_facets(include_inverse=True))
        fresh = FacetedSession(session.graph, closed=True)
        fresh.select_class(EX.Thing)
        _assert_in_sort_key_order([
            fresh.facet(EX.value), fresh.expand_path(EX.link, EX.value),
            fresh.facet(PropertyRef(EX.link, inverse=True))])
        for i, value in enumerate(later):
            session.graph.add(EX.term(f"t{i}"), EX.value, value)
            session.graph.add(EX.term(f"t{i}"), EX.kind, EX.k0)


@given(values=st.lists(_mixed, min_size=1, max_size=14),
       comparator=st.sampled_from(COMPARATORS),
       bound=st.one_of(
           st.integers(-60, 60).map(Literal.of),
           st.one_of(st.floats(-60, 60), st.just(math.nan)).map(Literal.of),
           st.decimals(-60, 60, places=1, allow_nan=False).map(Literal.of),
           _mixed.filter(lambda t: isinstance(t, Literal))),
       inverse=st.booleans())
@settings(max_examples=150, deadline=None)
def test_range_value_ids_answer_what_comparison_does(values, comparator,
                                                     bound, inverse):
    """A range condition keeps exactly the values of its last step that
    ``comparison()`` passes, for every comparator and bound, forward and
    inverse — read off the number memo or not, and again once the memo
    is filled."""
    graph = _mixed_graph(values)
    prop_id = graph.encode_term(EX.value)
    rows = graph.pos_ids(prop_id)
    candidates = set().union(*rows.values()) if inverse else set(rows)
    passes = comparison(comparator, bound)

    def passed(value_id):
        try:
            return passes(graph.decode_id(value_id))
        except ExpressionError:
            return False

    expected = {value_id for value_id in candidates if passed(value_id)}
    condition = PathRangeCondition(
        (PropertyRef(EX.value, inverse=inverse),), comparator, bound)
    for _ in range(2):
        assert set(condition.value_ids(graph)) == expected
