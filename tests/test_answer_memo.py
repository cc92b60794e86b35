"""The Answer Frame memo: a pressed frame is remembered on the state it
was computed for (``FacetedAnalyticsSession.run`` through
``_per_state``), under its engine, query and endpoint.

A repeated press on a state is served the kept rows — on every engine,
also after coming *back* to the state — until the graph changes; a
served frame is always the one a fresh session evaluates; nothing is
ever shared between two extensions, and a failed run is remembered
nowhere.  The state machine at the end draws clicks, presses, runs,
*back* and writes inside and outside the extension, and compares every
run against a fresh session's evaluation of the same state and query.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.analysis import StaticAnalysisError
from repro.endpoint import LocalEndpoint
from repro.facets import FacetedAnalyticsSession
from repro.facets.analytics import AnalyticsStateError
from repro.facets.model import State
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal

from tests.test_engine_equivalence import random_graph

ENGINES = ("sparql", "native", "row", "restrictions")

#: What the G/Σ buttons are pressed to: the grouping paths, the measured
#: path (``None``: count of items), the operations and the count flag.
#: No order-sensitive aggregate: two evaluations must agree row for row.
PRESSES = (
    ((), None, ("COUNT",), False),
    (((EX.maker,),), (EX.price,), ("AVG",), False),
    (((EX.maker, EX.origin),), (EX.price,), ("SUM", "MAX"), True),
    (((EX.ports,), (EX.maker,)), (EX.price,), ("MIN", "COUNT"), False),
)


def press(session, groups, measured, operations, with_count):
    session.clear_analytics()
    for path in groups:
        session.group_by(path)
    if measured is None:
        session.count_items()
    else:
        session.measure(measured, operations)
    session.with_count(with_count)


def pressed(graph, *clicks, analyze=False):
    session = FacetedAnalyticsSession(graph, closed=True, analyze=analyze)
    session.select_class(EX.Widget)
    for value in clicks:
        session.select_value((EX.maker,), value)
    press(session, *PRESSES[1])
    return session


def fresh_frame(session, engine):
    """``engine``'s answer to ``session``'s query on its current state,
    from a new session over a new state with the same members and
    intention — nothing remembered, the store's result cache emptied."""
    graph, state = session.graph, session.state
    fresh = FacetedAnalyticsSession(graph, closed=True)
    fresh._history = [State(graph, state.ids, state.intention,
                            state.description, state.unknown)]
    fresh._groups = list(session._groups)
    fresh._measure, fresh._with_count = session._measure, session._with_count
    graph.sparql_cache.clear()
    return fresh.run(engine)


def answers(session):
    stats = session.cache_stats()["answers"]
    return stats.hits, stats.misses, stats.invalidations


@pytest.fixture()
def graph():
    return random_graph(4)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_repeated_run_is_a_hit(graph, engine):
    session = pressed(graph)
    first = session.run(engine)
    second = session.run(engine)
    assert second is not first
    assert (second.columns, second.rows) == (first.columns, first.rows)
    assert answers(session) == (1, 1, 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_run_after_coming_back_is_a_hit(graph, engine):
    session = pressed(graph)
    first = session.run(engine)
    session.select_value((EX.maker,), EX.maker1)
    assert session.run(engine).rows != first.rows
    session.back()
    assert session.run(engine).rows == first.rows
    assert answers(session) == (1, 2, 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_write_between_two_runs_is_a_miss_and_an_invalidation(graph, engine):
    session = pressed(graph)
    session.run(engine)
    member = min(session.extension, key=lambda t: t.sort_key())
    graph.add(member, EX.price, Literal.of(100_000))
    frame = session.run(engine)
    assert answers(session) == (0, 2, 1)
    assert frame.rows == fresh_frame(session, engine).rows


@pytest.mark.parametrize("engine", ENGINES)
def test_sessions_with_the_same_text_never_share_a_frame(graph, engine):
    one, everyone = pressed(graph, EX.maker1), pressed(graph)
    assert one.translation().text == everyone.translation().text
    for session in (one, everyone, one, everyone):
        assert session.run(engine).rows == fresh_frame(session, engine).rows
    assert one.run(engine).rows != everyone.run(engine).rows


@pytest.mark.parametrize("engine", ENGINES)
def test_a_mutated_frame_never_reaches_the_memo(graph, engine):
    session = pressed(graph)
    frame = session.run(engine)
    rows = list(frame.rows)
    frame.rows.clear()
    frame.rows.append(("mangled",))
    assert session.run(engine).rows == rows


def test_the_key_names_the_engine_and_the_endpoint(graph):
    """Each engine evaluates for itself — none stands in for another —
    and a run through an endpoint is kept apart from one in process."""
    session = pressed(graph)
    for engine in ENGINES:
        session.run(engine)
    endpoint = LocalEndpoint(graph)
    session.run("sparql", endpoint)
    session.run("sparql", endpoint)
    assert answers(session) == (1, 5, 0)
    assert session.cache_stats()["answers"].size == 5


def test_a_failed_run_is_remembered_nowhere(graph):
    session = pressed(graph, analyze=True)
    session.measure((EX.maker,), "AVG")  # AVG over IRIs: ill-typed
    for _ in range(2):
        with pytest.raises(StaticAnalysisError):
            session.run("native")
    assert answers(session) == (0, 2, 0)
    assert session.cache_stats()["answers"].size == 0


# -- the state machine ---------------------------------------------------
_FUZZING = settings.get_current_profile_name() == "fuzz"


class AnswerMemoMachine(RuleBasedStateMachine):
    """One analytics session over a small ragged graph, driven through
    clicks, G/Σ presses, runs on every engine, *back*, and writes to the
    graph — after every run, the frame is the one a fresh session
    evaluates for the same state and query on that engine."""

    @initialize(seed=st.integers(0, 3), index=st.integers(0, len(PRESSES) - 1))
    def open(self, seed, index):
        self.graph = random_graph(seed, items=12)
        self.session = FacetedAnalyticsSession(self.graph, closed=True)
        self.session.select_class(EX.Widget)
        press(self.session, *PRESSES[index])
        self.fresh_items = 0

    @rule(index=st.integers(0, len(PRESSES) - 1))
    def press(self, index):
        press(self.session, *PRESSES[index])

    @rule(pick=st.integers(0, 10 ** 6))
    def refine(self, pick):
        offered = [(facet.path, marker.value)
                   for facet in self.session.all_facets()
                   for marker in facet.values
                   if marker.count < len(self.session.state)]
        if offered:
            self.session.select_value(*offered[pick % len(offered)])

    @rule()
    def back(self):
        self.session.back()

    @rule(engine=st.sampled_from(ENGINES))
    def run(self, engine):
        if (engine == "restrictions"
                and self.session.state.intention.root_class is None):
            # *back* reaches the start state, where the §5.5 fold has
            # no analysis root
            with pytest.raises(AnalyticsStateError):
                self.session.run(engine)
            return
        frame = self.session.run(engine)
        expected = fresh_frame(self.session, engine)
        assert (frame.columns, frame.rows) == (expected.columns, expected.rows)

    @rule(inside=st.booleans(), pick=st.integers(0, 10 ** 6),
          price=st.integers(0, 3))
    def add(self, inside, pick, price):
        if inside:
            members = sorted(self.session.extension, key=lambda t: t.sort_key())
            self.graph.add(members[pick % len(members)], EX.price,
                           Literal.of(50 * price))
        else:  # a widget no state of the session holds
            self.fresh_items += 1
            item = EX[f"fresh{self.fresh_items}"]
            self.graph.add(item, RDF.type, EX.Widget)
            self.graph.add(item, EX.maker, EX[f"maker{price}"])

    @rule(inside=st.booleans(), pick=st.integers(0, 10 ** 6))
    def remove(self, inside, pick):
        members = self.session.extension
        subjects = sorted({s for s, p, _ in self.graph.triples(None, None, None)
                           if (s in members) == inside and p != RDF.type},
                          key=lambda t: t.sort_key())
        if subjects:
            subject = subjects[pick % len(subjects)]
            triples = sorted(self.graph.triples(subject, None, None),
                             key=lambda t: (t[1].sort_key(), t[2].sort_key()))
            triples = [t for t in triples if t[1] != RDF.type]
            self.graph.remove(*triples[pick % len(triples)])


AnswerMemoMachine.TestCase.settings = (
    settings(deadline=None, stateful_step_count=25) if _FUZZING else
    settings(derandomize=True, max_examples=30, deadline=None,
             stateful_step_count=25))
test_answer_memo_machine = AnswerMemoMachine.TestCase
