"""A facet's value markers as columns (DESIGN.md design choice 4).

A listing keeps its markers as :class:`~repro.facets.model.Markers`:
one tuple of value terms and one of counts per facet, read as the
tuple of :class:`~repro.facets.model.ValueMarker` it replaces.  These
tests pin the three things that buys: the columns read like that
tuple, a listing's tracked allocations grow with its facets and not
with its values, and a dropped session is freed by reference counting
alone, without the cyclic collector.
"""

import copy
import gc
import pickle
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.datasets import products_graph
from repro.datasets.synthetic import SyntheticConfig, synthetic_graph
from repro.endpoint import LocalEndpoint, ResilientEndpoint
from repro.facets.analytics import FacetedAnalyticsSession
from repro.facets.model import Markers, PropertyFacet, PropertyRef, ValueMarker
from repro.facets.session import FacetedSession
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal

_terms = st.one_of(
    st.integers(-3, 3).map(Literal.of),
    st.sampled_from([EX.DELL, EX.Lenovo, EX.Maxtor]),
    st.sampled_from("xy").map(Literal))
_pairs = st.lists(st.tuples(_terms, st.integers(1, 4)), max_size=6)


@given(_pairs, st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
       st.sampled_from([None, -2, -1, 1, 2]), st.tuples(_terms, st.integers(1, 4)))
def test_marker_columns_read_like_the_tuple_of_markers(
        pairs, index, start, stop, step, probe):
    markers = tuple(ValueMarker(value, count) for value, count in pairs)
    columns = Markers(tuple(value for value, _ in pairs),
                      tuple(count for _, count in pairs))
    assert len(columns) == len(markers)
    assert bool(columns) == bool(markers)
    if -len(markers) <= index < len(markers):
        assert columns[index] == markers[index]
        assert type(columns[index]) is ValueMarker
    else:
        with pytest.raises(IndexError):
            columns[index]
    window = slice(start, stop, step)
    assert type(columns[window]) is Markers
    assert columns[window] == markers[window]
    assert list(columns) == list(markers)
    assert all(type(marker) is ValueMarker for marker in columns)
    assert list(reversed(columns)) == list(reversed(markers))
    assert (probe in columns) == (probe in markers)
    assert all(marker in columns for marker in markers)
    # equality both ways, with the tuple and with other columns
    assert columns == markers and markers == columns
    assert not (columns != markers) and not (markers != columns)
    assert columns == Markers(columns.terms, columns.counts)
    other = markers[:-1] if markers else (ValueMarker(*probe),)
    assert (columns == other) == (markers == other)
    assert (other == columns) == (other == markers)
    assert columns != list(markers)
    assert hash(columns) == hash(markers)
    assert repr(columns) == repr(markers)
    for clone in (pickle.loads(pickle.dumps(columns)), copy.copy(columns),
                  copy.deepcopy(columns)):
        assert type(clone) is Markers and clone == columns
    facet = PropertyFacet((PropertyRef(EX.price),), len(markers), columns)
    as_tuple = PropertyFacet((PropertyRef(EX.price),), len(markers), markers)
    assert facet == as_tuple and hash(facet) == hash(as_tuple)
    stale = replace(facet, approximate=True)
    assert stale.approximate and stale.values is columns
    assert stale == replace(as_tuple, approximate=True)


def test_a_listing_allocates_per_facet_not_per_value():
    """The tracked objects a listing leaves behind grow with its facets,
    not with its thousands of values: no tuple per marker."""
    graph = synthetic_graph(SyntheticConfig(laptops=2_000, seed=3))
    warm = FacetedSession(graph)
    for include_inverse in (False, True):
        # fill the dictionary's sort-key memo, shared by every session
        warm.all_facets(include_inverse)
    session = FacetedSession(warm.graph, closed=True)
    gc.disable()
    try:
        for include_inverse in (False, True):
            before = gc.get_count()[0]
            listing = session.all_facets(include_inverse)
            grown = gc.get_count()[0] - before
            values = sum(len(facet.values) for facet in listing)
            assert values > 100 * len(listing)
            assert grown <= 10 * len(listing), (grown, len(listing), values)
    finally:
        gc.enable()


def _work(endpoint):
    """A session that has done what a user does, and a weak reference
    to it (the session itself goes out of scope on return)."""
    session = FacetedAnalyticsSession(products_graph(), endpoint=endpoint)
    session.class_markers(expanded=True)
    session.all_facets(include_inverse=True)
    session.facet(EX.manufacturer)
    session.expand_path((EX.manufacturer,), EX.origin)
    session.select_class(EX.Laptop)
    session.select_value(EX.manufacturer, EX.DELL)
    session.back()
    session.class_markers(expanded=True)
    session.group_by((EX.manufacturer,))
    session.count_items()
    frames = [session.run(engine)
              for engine in ("sparql", "native", "row", "restrictions")]
    explored = frames[0].explore()
    explored.class_markers(expanded=True)
    explored.all_facets()
    return weakref.ref(session), weakref.ref(explored)


def test_a_dropped_session_is_freed_without_the_collector():
    """Native and through an endpoint, a session holds no reference
    cycle: dropped, it is gone at once, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        for endpoint in (None, lambda g: ResilientEndpoint(LocalEndpoint(g))):
            refs = _work(endpoint)
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
