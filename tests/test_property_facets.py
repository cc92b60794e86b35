"""Property-based tests of the interaction model.

The central invariant of the faceted-search model (§5.2.1): for every
reachable state, *the intention compiled to SPARQL evaluates to exactly
the extension*, and no offered transition ever empties the result set.
Random click sequences over a random synthetic KG exercise this.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets import FacetedSession
from repro.rdf import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import BNode, Literal
from repro.sparql import query as sparql


def random_walk(session, decisions):
    """Apply a decision list as clicks on whatever the UI offers."""
    for kind, pick_a, pick_b in decisions:
        if kind == 0:
            markers = session.class_markers()
            if not markers:
                continue
            session.select_class(markers[pick_a % len(markers)].cls)
        elif kind == 1:
            facets = session.property_facets()
            if not facets:
                continue
            facet = facets[pick_a % len(facets)]
            if not facet.values:
                continue
            marker = facet.values[pick_b % len(facet.values)]
            session.select_value(facet.path, marker.value)
        elif kind == 2:
            facets = [
                f for f in session.property_facets()
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
    for facet in session.property_facets():
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
