"""Id-space session states: every click is set algebra on the indexes,
and every listing is one scan of the state's own extension.

Three contracts, on random ragged graphs over the flat store and 2 and
4 shards.  (1) Every transition yields the extension the Term-level
§5.3.1 operations (``restrict_by_path`` / ``restrict_to_class`` /
``joins`` — the formal definitions, kept as the oracle) give, and raises ``EmptyTransitionError`` exactly when theirs is
empty; and a click is its condition — ``refine(condition)`` is the
matching ``select_*``, ``str(condition)`` the state's description,
``restriction()`` / ``condition_of`` a round trip, the saved fields a
replay to the same state.  (2) The listing of every state a script
reaches equals the scan of a fresh session, the per-path ``facet()``
and ``applicable_properties()``; a listing after a write shows it.
(3) ``facet(path)`` is the facet those operations define, asked before
or after the listing.  What a session derives from a state lives on the
state: it is found again after ``back()``, retired by a mutation, and
gone with a state that leaves the history.
"""

import datetime
import json
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.app import AnalyticsShell
from repro.datasets import products_graph
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.facets.intentions import (
    ClassCondition,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
    condition_of,
)
from repro.facets.model import (
    PropertyFacet,
    PropertyRef,
    ValueMarker,
    joins,
    path_joins,
    restrict,
    restrict_by_path,
    restrict_to_class,
)
from repro.facets.persistence import replay_session, session_to_dict
from repro.facets.session import EmptyTransitionError
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF, RDFS
from repro.rdf.rdfs import SchemaView
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import IRI, XSD_GYEAR, BNode, Literal
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import compare, comparison

_NODES = [EX.term(f"n{i}") for i in range(5)] + [BNode("b0")]
_CLASSES = [EX.Thing, EX.Other]
_NUMBERS = [Literal.of(n) for n in (1, 2, 3, 5)]
_LITERALS = _NUMBERS + [Literal.of("one"), Literal.of(2.5)]
_UNSEEN = [EX.neverInterned, Literal.of("never interned")]
_STEPS = [PropertyRef(p, inverse) for p in (EX.p, EX.q, EX.r)
          for inverse in (False, True)] + [PropertyRef(EX.unused)]

#: ``make fuzz``: the listing property at 10 000 random draws.
_FUZZING = settings.get_current_profile_name() == "fuzz"

_P, _Q, _R = (PropertyRef(p) for p in (EX.p, EX.q, EX.r))
_RAGGED = [(EX.n0, EX.p, EX.n1), (EX.n0, EX.q, EX.n2), (EX.n1, EX.q, EX.n2),
           (EX.n1, EX.q, Literal.of(2)), (EX.n3, EX.q, Literal.of(2)),
           (EX.n3, EX.r, Literal.of(2)), (EX.n2, EX.r, Literal.of("one")),
           (EX.n4, EX.r, Literal.of(2))]

# Ragged: any node may miss a property or have several values of it.
_triples = st.lists(st.one_of(
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q]),
              st.sampled_from(_NODES)),
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.q, EX.r]),
              st.sampled_from(_LITERALS)),
    st.tuples(st.sampled_from(_NODES), st.just(RDF.type),
              st.sampled_from(_CLASSES)),
), min_size=8, max_size=40)
_COMPARATORS = ["<", "<=", ">", ">=", "=", "!="]
_seeds = st.one_of(
    st.none(), st.sets(st.sampled_from(_NODES + _LITERALS + _UNSEEN), min_size=1))


@st.composite
def _scripts(draw):
    """``(triples, seeds, actions)`` with every action drawn against the
    state it applies to: paths mostly follow steps that lead somewhere
    and clicked values mostly come from the markers the path ends at
    (so transitions land), sometimes from anywhere (so some would empty
    the extension)."""
    triples = draw(_triples)
    seeds = draw(_seeds)
    graph = Graph(triples)
    extension = set(FacetedSession(graph, results=seeds, closed=True).extension)
    history, actions = [extension], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ["class", "value", "values", "range", "interval", "pivot", "back"]))
        if kind == "back":
            action = ("back",)
        elif kind == "class":
            action = (kind, draw(st.sampled_from(_CLASSES + [EX.NoSuchClass])))
        else:
            path, markers = [], history[-1]
            for _ in range(draw(st.integers(1, 3))):
                live = [s for s in _STEPS if joins(graph, markers, s)]
                path.append(draw(st.sampled_from(live + live + _STEPS)))
                markers = joins(graph, markers, path[-1])
            path = tuple(path)
            value = st.sampled_from(
                4 * sorted(markers, key=lambda t: t.sort_key())
                + _NODES + _LITERALS + _UNSEEN)
            if kind == "value":
                action = (kind, path, draw(value))
            elif kind == "values":
                action = (kind, path, draw(st.sets(value, max_size=3)))
            elif kind == "range":
                action = (kind, path, draw(st.sampled_from(_COMPARATORS)),
                          draw(st.sampled_from(_LITERALS)))
            elif kind == "interval":
                action = (kind, path, draw(st.sampled_from(_NUMBERS)),
                          draw(st.sampled_from(_NUMBERS)))
            else:
                action = (kind, path)
        actions.append(action)
        if kind == "back":
            if len(history) > 1:
                history.pop()
        else:
            pushed = _oracle(graph, history[-1], action)
            if all(pushed):
                history.extend(pushed)
    return triples, seeds, actions


def _stores(triples):
    flat = Graph(triples)
    yield flat
    for shards in (2, 4):
        yield ShardedGraph.from_graph(flat, shards=shards)


def _range_oracle(graph, extension, path, comparator, bound):
    def passes(term):
        try:
            return compare(comparator, term, bound)
        except ExpressionError:
            return False

    matching = {v for v in path_joins(graph, extension, path)[-1] if passes(v)}
    return restrict_by_path(graph, extension, path, matching) if matching else set()


def _oracle(graph, extension, action):
    """The extension(s) the Term-level operations give for ``action``:
    one per state the transition pushes."""
    kind = action[0]
    if kind == "class":
        return [restrict_to_class(graph, extension, action[1])]
    if kind == "value":
        return [restrict_by_path(graph, extension, action[1], action[2])]
    if kind == "values":
        out = set()
        for value in action[2]:
            out |= restrict_by_path(graph, extension, action[1], value)
        return [out]
    if kind == "range":
        return [_range_oracle(graph, extension, *action[1:])]
    if kind == "interval":
        low = _range_oracle(graph, extension, action[1], ">=", action[2])
        return [low, _range_oracle(graph, low, action[1], "<=", action[3])]
    assert kind == "pivot"
    for step in action[1]:
        extension = joins(graph, extension, step)
    return [extension]


def _apply(session, action):
    kind = action[0]
    return {
        "class": session.select_class, "value": session.select_value,
        "values": session.select_values, "range": session.select_range,
        "interval": session.select_interval, "pivot": session.pivot_to,
    }[kind](*action[1:])


# -- (1) transitions ≡ the Term-level oracle ------------------------------
@given(_scripts())
@settings(max_examples=150, deadline=None)
def test_every_transition_equals_the_term_level_oracle(script):
    triples, seeds, actions = script
    for graph in _stores(triples):
        session = FacetedSession(graph, results=seeds, closed=True)
        if seeds is not None:
            assert session.extension == seeds
            assert len(session.state) == len(session.objects()) == len(seeds)
        for action in actions:
            before = session.history()
            if action[0] == "back":
                session.back()
                assert session.history() == (before[:-1] or before)
                continue
            expected = _oracle(graph, before[-1].extension, action)
            if all(expected):
                state = _apply(session, action)
                assert state is session.state
                assert state.extension == expected[-1]
                assert len(state) == len(expected[-1])
                assert len(session.history()) == len(before) + len(expected)
            else:
                with pytest.raises(EmptyTransitionError):
                    _apply(session, action)
                assert session.history() == before


# -- (1b) a click is its condition ------------------------------------------
def _click(action):
    """The condition ``action`` clicks, or ``None`` (interval, pivot)."""
    kind = action[0]
    if kind == "class":
        return ClassCondition(action[1])
    if kind == "value":
        return PathValueCondition(*action[1:])
    if kind == "values":
        return PathValueSetCondition(
            action[1], tuple(sorted(action[2], key=lambda t: t.sort_key())))
    if kind == "range":
        return PathRangeCondition(*action[1:])
    return None


def _gained(before, after):
    """The condition ``after`` holds and ``before`` does not; a first
    class click counts as its ``ClassCondition``."""
    if after.root_class != before.root_class:
        assert after.conditions == before.conditions
        return ClassCondition(after.root_class)
    assert after.conditions[:-1] == before.conditions
    return after.conditions[-1]


# every kind of click landing once, whatever the draws: a range, an
# interval, a literal-valued click, a value set, a pivot, a late class
_LANDING = (
    [(n, RDF.type, EX.Thing) for n in _NODES[:4]]
    + [(n, EX.r, v) for n, v in zip(_NODES, _NUMBERS)]
    + [(_NODES[0], EX.q, _NUMBERS[1]), (_NODES[1], EX.q, _NUMBERS[1]),
       (_NODES[0], EX.p, _NODES[1]), (_NODES[1], EX.p, _NODES[2])],
    None,
    [("range", (_STEPS[4],), ">=", _NUMBERS[1]),
     ("interval", (_STEPS[4],), _NUMBERS[1], _NUMBERS[2]),
     ("value", (_STEPS[2],), _NUMBERS[1]), ("back",),
     ("values", (_STEPS[0],), {_NODES[1], _NODES[2]}),
     ("pivot", (_STEPS[0],)), ("class", EX.Thing)])


@given(_scripts())
@example(_LANDING)
@settings(max_examples=100, deadline=None)
def test_a_click_is_its_condition_in_every_form(script):
    """``refine(condition)`` is the matching ``select_*``; the state it
    pushes is described by ``str(condition)``; its HIFUN form reads back
    as the click (``condition_of``); and the saved form replays to the
    same extension, intention and SPARQL text."""
    triples, seeds, actions = script
    graph = Graph(triples)
    open_session = partial(FacetedAnalyticsSession, closed=True)
    session = open_session(graph, results=seeds)
    twin = open_session(graph, results=seeds)
    for action in actions:
        if action[0] == "back":
            session.back()
            twin.back()
            continue
        click = _click(action)
        before = session.history()
        try:
            _apply(session, action)
        except EmptyTransitionError:
            with pytest.raises(EmptyTransitionError):
                twin.refine(click) if click else _apply(twin, action)
            assert len(twin.history()) == len(before)
            continue
        state = twin.refine(click) if click else _apply(twin, action)
        pushed = session.history()[len(before) - 1:]
        assert [(s.ids, s.intention, s.description) for s in pushed] == [
            (s.ids, s.intention, s.description)
            for s in twin.history()[len(before) - 1:]]
        if action[0] != "pivot":
            for parent, child in zip(pushed, pushed[1:]):
                gained = _gained(parent.intention, child.intention)
                assert child.description == str(gained)
                restriction = gained.restriction()
                if restriction is None:
                    assert isinstance(
                        gained, (ClassCondition, PathValueSetCondition))
                elif (isinstance(gained, PathRangeCondition)
                        or isinstance(gained.value, IRI)):
                    assert condition_of(restriction) == gained
                else:  # a click matches the term, "=" compares the value
                    assert condition_of(restriction) == PathRangeCondition(
                        gained.path, "=", gained.value)
            assert _gained(before[-1].intention, pushed[1].intention) == (
                click or PathRangeCondition(action[1], ">=", action[2]))
        saved = json.loads(json.dumps(session_to_dict(session)))
        replayed = replay_session(graph, saved, open_session=open_session)
        assert replayed.state.ids == state.ids
        assert replayed.extension == session.extension
        assert replayed.state.intention == state.intention
        assert replayed.state.intention.to_sparql() == state.intention.to_sparql()


def test_an_unknown_comparator_is_an_error_not_an_empty_result():
    session = FacetedSession(products_graph())
    session.select_class(EX.Laptop)
    before = session.history()
    with pytest.raises(ValueError, match="unknown comparator '~'") as error:
        session.select_range(EX.price, "~", Literal.of(900))
    assert not isinstance(error.value, EmptyTransitionError)
    assert session.history() == before


# -- (2) every listing ≡ a fresh scan ≡ per-path facet() ------------------
def _assert_listing(session, include_inverse):
    """The session's listing equals a fresh session's scan, its
    per-path facets and its applicable properties; returns it."""
    graph = session.graph
    got = session.all_facets(include_inverse)
    fresh = FacetedSession(graph, results=session.extension, closed=True)
    assert got == fresh.all_facets(include_inverse)
    single = FacetedSession(graph, results=session.extension, closed=True)
    assert got == [single.facet(facet.path) for facet in got]
    assert [f.prop for f in got] == single.applicable_properties(include_inverse)
    return got


@given(_scripts(), st.booleans())
# a child listed below a listed grandparent: an interval pushes two states
@example((_RAGGED, None, [("interval", (_Q,), Literal.of(1), Literal.of(3))]),
         False)
# back to a listed state, then another click from it
@example((_RAGGED, None, [("value", (_Q,), Literal.of(2)), ("back",),
                          ("range", (_R,), ">=", Literal.of(2))]), True)
# a pivot is no subset of the state it leaves; then a click below it
@example((_RAGGED, None, [("pivot", (_P,)), ("value", (_Q,), EX.n2)]), False)
@settings(derandomize=not _FUZZING, deadline=None,
          max_examples=10_000 if _FUZZING else 100)
def test_every_listing_equals_a_fresh_scan_and_per_path_facets(
        script, include_inverse):
    triples, seeds, actions = script
    for graph in _stores(triples):
        session = FacetedSession(graph, results=seeds, closed=True)
        _assert_listing(session, include_inverse)
        listed = {session.state}

        def check_listing():
            # A state listed before is a hit; any other is scanned, a miss.
            state = session.state
            before = session.cache_stats()["facets"]
            _assert_listing(session, include_inverse)
            after = session.cache_stats()["facets"]
            assert (after.hits - before.hits, after.misses - before.misses) == (
                (1, 0) if state in listed else (0, 1))
            listed.add(state)

        for action in actions:
            if action[0] == "back":
                session.back()
            else:
                try:
                    _apply(session, action)
                except EmptyTransitionError:
                    continue
            check_listing()
        # the same on the way back (where only the first state of an
        # interval was never listed)
        while len(session.history()) > 1:
            session.back()
            check_listing()


def _misses(session):
    return session.cache_stats()["facets"].misses


def test_an_interval_below_a_listed_state_is_one_scan():
    session = FacetedSession(products_graph())
    session.select_class(EX.Laptop)
    session.all_facets()
    before = _misses(session)
    session.select_interval(EX.price, Literal.of(850), Literal.of(950))
    assert len(session.history()) == 4  # the interval pushed two states
    _assert_listing(session, False)
    # one scan, of the interval's state: the state the lower bound
    # pushed is never listed and holds nothing
    assert _misses(session) == before + 1
    assert session.cache_stats()["facets"].size == 2


def test_back_then_another_click_scans_the_new_state():
    session = FacetedSession(products_graph())
    session.select_class(EX.Laptop)
    laptops = session.all_facets()
    session.select_value(EX.manufacturer, EX.DELL)
    _assert_listing(session, False)
    session.back()
    assert session.all_facets() == laptops  # found again on its state
    before = _misses(session)
    session.select_range(EX.USBPorts, ">=", Literal.of(3))
    assert _assert_listing(session, False) != laptops
    assert _misses(session) == before + 1


def test_a_pivot_and_a_click_below_it_are_each_listed_by_their_scan():
    session = FacetedSession(products_graph())
    session.select_class(EX.Laptop)
    laptops = session.all_facets()
    session.pivot_to(EX.manufacturer)
    assert not session.history()[-2].ids >= session.state.ids
    makers = _assert_listing(session, False)
    assert makers != laptops
    session.select_value(EX.origin, EX.US)
    assert session.history()[-2].ids >= session.state.ids
    assert _assert_listing(session, False) != makers


@pytest.mark.parametrize("shards", [1, 2])
def test_a_listing_after_add_shows_the_new_value(shards):
    graph = products_graph()
    if shards > 1:
        graph = ShardedGraph.from_graph(graph, shards=shards)
    session = FacetedSession(graph)
    session.select_class(EX.Laptop)
    listed = session.all_facets()
    session.select_value(EX.manufacturer, EX.DELL)
    session.all_facets()
    # a value no listing has seen yet, on a member of the child
    member = sorted(session.extension, key=lambda t: t.sort_key())[0]
    assert session.graph.add(member, EX.price, Literal.of(123456))
    facets = _assert_listing(session, False)
    price = next(f for f in facets if f.prop.prop == EX.price)
    assert price.value_for(Literal.of(123456)).count == 1
    # the parent is scanned again too, and differs from its old self
    session.back()
    assert _assert_listing(session, False) != listed


# -- (3) facet(path) ≡ the formal definition -------------------------------
def _formal_facet(graph, extension, path):
    """The facet at ``path`` by the Term-level operations: over the
    marker set ``M_{k-1}`` that precedes the last step (``path_joins``),
    a marker per value of ``Joins(M_{k-1}, p)`` counting
    ``Restrict(M_{k-1}, p : v)``, and the members of ``M_{k-1}`` that
    have the property at all."""
    previous = (extension if len(path) == 1
                else path_joins(graph, extension, path[:-1])[-1])
    step = path[-1]
    values = sorted(joins(graph, previous, step), key=lambda t: t.sort_key())
    return PropertyFacet(
        path=path,
        count=sum(1 for member in previous if joins(graph, [member], step)),
        values=tuple(ValueMarker(v, len(restrict(graph, previous, step, v)))
                     for v in values))


@given(_triples, _seeds,
       st.lists(st.sampled_from(_STEPS), min_size=1, max_size=3).map(tuple),
       st.booleans())
# M_1 = {n2, "2"^^int} holds a literal before the inverse step: only n2
# may be a source (r⁻¹ from the literal 2 would reach n3 and n4)
@example(_RAGGED, None, (_Q, PropertyRef(EX.r, True)), True)
@example(_RAGGED, {EX.n3, Literal.of(2)}, (PropertyRef(EX.r, True),), True)
# a property the graph never saw, as the last step and in the prefix
@example(_RAGGED, None, (_Q, PropertyRef(EX.unused)), False)
@example(_RAGGED, None, (PropertyRef(EX.unused, True), _Q), False)
@example(_RAGGED, None, (_P, _Q, _R), False)
@settings(max_examples=100, deadline=None)
def test_facet_is_the_formal_definition_before_and_after_the_listing(
        triples, seeds, path, include_inverse):
    for graph in _stores(triples):
        session = FacetedSession(graph, results=seeds, closed=True)
        expected = _formal_facet(graph, session.extension, path)
        assert session.facet(path) == expected   # counted on demand
        listing = session.all_facets(include_inverse)
        assert session.facet(path) == expected   # found on the state again
        late = FacetedSession(graph, results=seeds, closed=True)
        assert late.all_facets(include_inverse) == listing
        assert late.facet(path) == expected      # first asked after the listing
        if len(path) == 1:
            # ... where a direct facet is the listing's own entry
            listable = expected.values and (include_inverse or not path[0].inverse)
            assert [f for f in listing if f.path == path] == (
                [expected] if listable else [])
            if listable:
                assert late.facet(path) is next(
                    f for f in late.all_facets(include_inverse) if f.path == path)
        for entry in listing:
            assert entry == _formal_facet(graph, session.extension, entry.path)


# -- what a state decodes, and when ----------------------------------------
def test_transitions_and_status_lines_never_decode_the_extension():
    shell = AnalyticsShell(products_graph())
    assert "3 objects" in shell.execute("select laptop")
    assert "objects" in shell.execute("filter price >= 800")
    assert "objects" in shell.execute("value manufacturer DELL")
    assert "objects" in shell.execute("back")
    shell.execute("classes")
    shell.execute("facets")
    for state in shell.session.history():
        assert state._extension is None
        assert str(len(state)) in repr(state)
    assert len(shell.session.extension) == len(shell.session.state)
    assert shell.session.state._extension is shell.session.extension


def test_state_memos_are_keyed_by_the_id_set():
    session = FacetedAnalyticsSession(products_graph())
    assert not hasattr(session, "_extension_ids")
    session.select_class(EX.Laptop)
    view = session._extension_view()
    assert session._extension_view() is view
    assert view.members == session.state.ids
    # another state has its own
    session.select_value(EX.manufacturer, EX.DELL)
    assert session._extension_view().members == session.state.ids != view.members


@pytest.mark.parametrize("shards", [1, 2])
def test_back_finds_the_view_again_and_a_write_rebuilds_it(shards):
    graph = products_graph()
    if shards > 1:
        graph = ShardedGraph.from_graph(graph, shards=shards)
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    session.count_items()
    view = session._extension_view()
    rows = session.run("sparql").rows

    session.select_value(EX.manufacturer, EX.DELL)
    assert session._extension_view() is not view
    assert session.run("sparql").rows != rows
    session.back()
    assert session._extension_view() is view
    before = session.cache_stats()["answers"]
    assert session.run("sparql").rows == rows  # the state's own answer
    after = session.cache_stats()["answers"]
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    # a write retires it, counters kept
    assert session.graph.add(EX.laptopX, EX.price, Literal.of(1))
    assert session._extension_view() is not view
    assert session._extension_view().members == view.members
    assert session.run("sparql").rows == rows
    final = session.cache_stats()["answers"]
    assert (final.hits, final.misses) == (after.hits, after.misses + 1)


def test_a_state_popped_by_back_takes_its_memo_along():
    session = FacetedSession(products_graph())

    def size():
        return session.cache_stats()["facets"].size

    session.select_class(EX.Laptop)
    session.all_facets()
    session.class_markers()
    assert size() == 2
    session.select_value(EX.manufacturer, EX.DELL)
    listing = session.all_facets()
    session.facet((EX.manufacturer, EX.origin))
    assert size() == 4
    session.back()
    assert size() == 2
    # the same click again is a new state: nothing is found on it, and
    # its listing is scanned once more
    before = session.cache_stats()["facets"]
    session.select_value(EX.manufacturer, EX.DELL)
    assert session.all_facets() == listing
    after = session.cache_stats()["facets"]
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    assert size() == 3
    assert (after.evictions, after.invalidations) == (0, 0)


def test_one_scripted_session_counts_what_the_parent_commit_counted():
    """hits / misses / invalidations of ``cache_stats()["facets"]`` after
    every step, as the content-keyed LRU this memo replaced reported
    them (taken at commit 39f8e8a)."""
    session = FacetedSession(products_graph())
    script = [
        (lambda: session.select_class(EX.Laptop), (0, 0, 0)),
        (session.all_facets, (0, 1, 0)),
        (lambda: session.select_value(EX.manufacturer, EX.DELL), (0, 1, 0)),
        (session.all_facets, (0, 2, 0)),
        (session.back, (0, 2, 0)),
        (session.all_facets, (1, 2, 0)),
        (lambda: session.select_range(EX.USBPorts, ">=", Literal.of(2)),
         (1, 2, 0)),
        (lambda: session.expand_path(EX.manufacturer, EX.origin), (1, 3, 0)),
        (session.class_markers, (1, 4, 0)),
    ]
    for step, expected in script:
        step()
        stats = session.cache_stats()["facets"]
        assert (stats.hits, stats.misses, stats.invalidations) == expected
    # ... and after a write, every revisit finds an older generation
    session.graph.add(EX.laptopX, EX.price, Literal.of(1))
    session.class_markers()
    session.expand_path(EX.manufacturer, EX.origin)
    stats = session.cache_stats()["facets"]
    assert (stats.hits, stats.misses, stats.invalidations) == (1, 6, 2)


# -- results= sessions whose seeds the graph never interned ----------------
@pytest.mark.parametrize("shards", [1, 2])
def test_unknown_seeds_count_and_run_as_before(shards):
    graph = products_graph()
    if shards > 1:
        graph = ShardedGraph.from_graph(graph, shards=shards)
    seeds = [EX.laptop1, EX.laptop2, EX.laptop3, EX.neverInterned,
             Literal.of("stray"), Literal.of(2)]
    session = FacetedAnalyticsSession(graph, results=seeds)
    assert session.extension == frozenset(seeds)
    assert len(session.state) == len(session.objects()) == 6
    assert EX.neverInterned in session.state.unknown
    assert len(session._extension_view().members) == 4

    # a literal is no item (DESIGN.md, *Semantic forks* (b)): every
    # engine counts the four seeds that can be typed, the one the graph
    # never interned among them
    session.count_items()
    for engine in ("native", "row", "sparql"):
        assert session.run(engine).rows == [(Literal.of(4),)]
    session.group_by(EX.manufacturer)
    session.measure(EX.price, "AVG")
    session.with_count()
    expected = [(EX.DELL, Literal.of(950.0), Literal.of(2)),
                (EX.Lenovo, Literal.of(820.0), Literal.of(1))]
    for engine in ("native", "row", "sparql"):
        assert session.run(engine).rows == expected

    # a click drops what matches nothing
    state = session.select_class(EX.Laptop)
    assert not state.unknown and len(state) == 3


# -- the satellites' own equivalences --------------------------------------
@given(_triples)
@settings(max_examples=40, deadline=None)
def test_classes_read_from_the_type_row_keys_on_every_store(triples):
    triples = triples + [(EX.Thing, RDFS.subClassOf, EX.Top),
                         (EX.Declared, RDF.type, RDFS.Class)]
    flat = Graph(triples)
    used = {o for _, _, o in flat.triples(None, RDF.type, None)}
    expected = (used | {EX.Thing, EX.Top, EX.Declared}) - {RDFS.Class}
    for graph in _stores(triples):
        view = SchemaView(graph, closed=True)
        assert view.classes() == expected
        assert view.maximal_classes() == sorted(
            expected - {EX.Thing}, key=lambda t: t.sort_key())
    assert SchemaView(Graph(), closed=True).classes() == set()


_TERMS = _LITERALS + [
    Literal.of(True), Literal.of(datetime.date(2021, 6, 10)),
    Literal.of(datetime.datetime(2021, 6, 10, 12)), Literal("2021", XSD_GYEAR),
    Literal("x", "http://example.org/unknown-datatype"), EX.n0, BNode("b0")]


@pytest.mark.parametrize("op", _COMPARATORS + ["~"])
def test_comparison_is_compare_with_the_bound_parsed_once(op):
    def verdict(fn, *args):
        try:
            return fn(*args)
        except ExpressionError:
            return ExpressionError

    for bound in _TERMS:
        passes = comparison(op, bound)
        for term in _TERMS:
            assert verdict(passes, term) == verdict(compare, op, term, bound), (
                term, op, bound)
