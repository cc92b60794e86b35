"""Chaos tests: faceted sessions driven over a fault-injecting endpoint.

The acceptance scenario of the resilience layer: a scripted 50-transition
faceted-analytics session over a flaky endpoint (fault rates up to 0.3,
retries on) must complete with **zero uncaught exceptions**, every
degraded count explicitly flagged, the interaction state consistent at
every step, and no ``rdf:type :temp`` residue in the user's graph.

The fault-rate sweep is marked ``chaos`` (run via ``make chaos``); the
deterministic degradation tests below it run in the tier-1 suite.
"""

import random
from dataclasses import replace

import pytest

from repro.datasets import products_graph
from repro.endpoint import (
    EndpointError,
    EndpointUnavailable,
    FaultModel,
    LocalEndpoint,
    NetworkModel,
    RemoteEndpointSimulator,
    ResilientEndpoint,
    RetryPolicy,
)
from repro.facets import (
    EmptyTransitionError,
    FacetedAnalyticsSession,
    PropertyFacet,
    PropertyRef,
)
from repro.facets.sparql_backend import TEMP, SparqlFacetEngine
from repro.rdf.namespace import EX, RDF

TRANSITIONS = 50


def temp_residue(graph):
    return list(graph.triples(None, RDF.type, TEMP))


def flaky_endpoint(raw=None, network=None, faults=None, seed=0, **resilience):
    """A session's ``endpoint``: a :class:`ResilientEndpoint` (retry /
    timeout / breaker from ``resilience``) over ``raw(graph)`` — by
    default a simulated remote with ``network`` latencies and
    ``faults``."""
    def build(graph):
        inner = (raw(graph) if raw is not None
                 else RemoteEndpointSimulator(graph, network, faults, seed=seed))
        return ResilientEndpoint(inner, seed=seed, **resilience)
    return build


def fingerprint(graph):
    """What a read must leave exactly as it found it."""
    return graph.generation, len(graph), graph.predicate_counts()


def drive(session, seed, transitions=TRANSITIONS):
    """Drive a scripted interaction: pick random clickable markers.

    Only :class:`EmptyTransitionError` from clicking an *approximate*
    (stale) marker is tolerated — the sanctioned degradation signal.
    Anything else propagates and fails the test.  Returns the number of
    empty clicks absorbed.
    """
    rng = random.Random(seed)
    empty_clicks = 0
    done = 0
    while done < transitions:
        actions = [("back",)] if len(session.history()) > 1 else []
        markers = [m for top in session.class_markers(expanded=True)
                   for m in top.flatten()]
        for marker in markers:
            actions.append(("class", marker))
        listing = session.all_facets()
        for facet in listing:
            for value in facet.values[:4]:
                actions.append(("value", facet, value))
        if not actions:
            # Everything degraded to empty right now (e.g. circuit open):
            # the user waits a moment and the UI refreshes.
            session.endpoint.advance(5.0)
            done += 1
            continue
        action = rng.choice(actions)
        approximate = False
        try:
            if action[0] == "back":
                session.back()
            elif action[0] == "class":
                approximate = action[1].approximate
                session.select_class(action[1].cls)
            else:
                facet, value = action[1], action[2]
                approximate = facet.approximate
                session.select_value(facet.path, value.value)
        except EmptyTransitionError:
            if not approximate:
                raise
            empty_clicks += 1
        assert session.extension, "session reached an empty extension"
        done += 1
    return empty_clicks


class TestChaosSweep:
    @pytest.mark.chaos
    @pytest.mark.parametrize("fault_rate", [0.1, 0.2, 0.3])
    def test_scripted_session_survives_fault_sweep(self, fault_rate):
        session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
            network=NetworkModel.offpeak(),
            faults=FaultModel.uniform(fault_rate),
            retry=RetryPolicy(max_attempts=4),
            timeout=120.0,
            seed=int(fault_rate * 10),
        ))
        drive(session, seed=42)
        # Zero uncaught exceptions (we got here), state consistent:
        assert session.extension
        assert not temp_residue(session.graph)
        # Every absorbed failure is explicit and typed:
        engine = session.facet_engine
        for event in engine.incidents:
            assert isinstance(event.error, EndpointError)
            assert event.operation
        health = engine.health()
        assert health["incidents"] == len(engine.incidents)
        assert health["queries"] > 0

    @pytest.mark.chaos
    def test_chaos_session_is_seeded_deterministic(self):
        def run():
            session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
                network=NetworkModel.offpeak(),
                faults=FaultModel.uniform(0.25),
                retry=RetryPolicy(max_attempts=3),
                seed=7,
            ))
            drive(session, seed=13)
            key = lambda s: (s.network_seconds, s.rows, s.attempts,
                             s.backoff_seconds, s.outcome)
            return ([key(s) for s in session.endpoint.history],
                    [str(e) for e in session.facet_engine.incidents])
        assert run() == run()


class TestDegradation:
    def flaky_session(self, fault_rate=0.6, retry=None, **kwargs):
        return FacetedAnalyticsSession(
            products_graph(),
            endpoint=flaky_endpoint(
                network=NetworkModel.offpeak(),
                faults=FaultModel.uniform(fault_rate),
                retry=retry or RetryPolicy.none(),
                breaker=None,
                seed=1),
            **kwargs,
        )

    def test_no_retries_surface_typed_errors_only(self):
        """With retries disabled the raw endpoint's failures must appear
        as EndpointError subclasses in incidents — never bare Exception."""
        session = self.flaky_session()
        for _ in range(12):
            session.class_markers()
            session.all_facets()
        assert session.facet_engine.incidents
        for event in session.facet_engine.incidents:
            assert type(event.error) is not Exception
            assert isinstance(event.error, EndpointError)
        report = session.endpoint.report()
        assert report["retries"] == 0
        assert report["failures"] == len(
            [s for s in session.endpoint.history if not s.ok])

    def test_stale_counts_flagged_approximate(self):
        """After the endpoint dies, cached markers are served flagged."""
        graph = products_graph()
        session = FacetedAnalyticsSession(graph, endpoint=flaky_endpoint(
            raw=lambda g: FailAfter(g, healthy_queries=200),
            retry=RetryPolicy.none(), breaker=None))
        fresh = session.class_markers(expanded=True)
        fresh_listing = session.all_facets()
        assert fresh and all(not m.approximate for m in fresh)
        assert not session.facet_engine.incidents
        assert not any(f.approximate for f in fresh_listing)
        session.endpoint.inner.kill()
        stale = session.class_markers(expanded=True)
        assert [m.cls for m in stale] == [m.cls for m in fresh]
        for marker in stale:
            for m in marker.flatten():
                assert m.approximate
                assert str(m).startswith(m.label + " (~")
        stale_listing = session.all_facets()
        # everything had a cached value
        assert stale_listing == [
            replace(facet, approximate=True) for facet in fresh_listing]
        incidents = session.facet_engine.incidents
        assert incidents and all(e.stale for e in incidents)

    def test_stale_properties_keep_their_direction(self):
        """An inverse discovery that fails is served the last *inverse*
        list, never the forward-only one."""
        session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
            raw=lambda g: FailAfter(g, healthy_queries=10 ** 9),
            retry=RetryPolicy.none(), breaker=None))
        forward = session.applicable_properties()
        both = session.applicable_properties(include_inverse=True)
        assert any(ref.inverse for ref in both) and len(both) > len(forward)
        session.endpoint.inner.kill()
        assert session.applicable_properties(include_inverse=True) == both
        assert session.applicable_properties() == forward
        assert all(e.stale for e in session.facet_engine.incidents)

    def test_a_listing_is_the_discovery_stale_properties_fall_back_on(self):
        """A state's properties are its listing's steps: after a healthy
        listing, a failed lookup is the listing's one incident, served
        that listing's steps stale."""
        session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
            raw=lambda g: FailAfter(g, healthy_queries=10 ** 9),
            retry=RetryPolicy.none(), breaker=None))
        listing = session.all_facets(include_inverse=True)
        session.select_class(EX.Laptop)
        session.endpoint.inner.kill()
        assert session.applicable_properties(include_inverse=True) == [
            facet.prop for facet in listing]
        (event,) = session.facet_engine.incidents
        assert (event.operation, event.stale) == ("listing", True)

    def test_a_healthy_empty_discovery_is_no_listing_error(self):
        """The listing reports the outcome of its own discovery: one that
        failed earlier does not turn a later, healthy, property-less
        listing into an incident."""
        session = FacetedAnalyticsSession(
            products_graph(), results=[EX.Asia], endpoint=flaky_endpoint(
                raw=lambda g: FailAfter(g, healthy_queries=0),
                retry=RetryPolicy.none(), breaker=None))
        assert session.all_facets() == []
        (event,) = session.facet_engine.incidents
        assert (event.operation, event.stale) == ("listing", False)
        session.endpoint.inner.remaining = 10 ** 9
        assert session.all_facets() == []
        assert session.facet_engine.incidents == [event]

    def test_a_never_served_listing_is_dropped_empty(self):
        """A listing is one degrading operation: never served before, a
        failed one has no facets, and its failure is one dropped
        incident."""
        session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
            raw=FailFacetCounts, retry=RetryPolicy.none(), breaker=None))
        assert session.all_facets() == []
        (event,) = session.facet_engine.incidents
        assert (event.operation, event.stale) == ("listing", False)
        assert isinstance(event.error, EndpointError)

    def test_a_failed_listing_is_served_stale_as_a_whole(self):
        """A listing that fails after one query of its four is served
        the last listing whole, every facet approximate — never a mix
        of fresh and stale facets."""
        session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
            raw=lambda g: FailAfter(g, healthy_queries=10 ** 9),
            retry=RetryPolicy.none(), breaker=None))
        fresh = session.all_facets(include_inverse=True)
        session.select_class(EX.Laptop)
        session.endpoint.inner.remaining = 1
        stale = session.all_facets(include_inverse=True)
        assert stale == [replace(facet, approximate=True) for facet in fresh]
        (event,) = session.facet_engine.incidents
        assert (event.operation, event.stale) == ("listing", True)

    def test_facet_last_resort_is_flagged_empty(self):
        session = self.flaky_session(fault_rate=0.0)
        session.endpoint.inner.faults = FaultModel.uniform(1.0)
        refs = None
        try:
            refs = FacetedAnalyticsSession(
                products_graph()).applicable_properties()
        except EndpointError:  # pragma: no cover - native path cannot fail
            pytest.fail("native applicable_properties must not fail")
        facet = session.facet((refs[0],))
        assert facet.approximate
        assert facet.count == 0
        assert facet.values == ()

    def test_transitions_never_raise_endpoint_errors(self):
        """State machinery is native: selections work even when every
        endpoint query fails."""
        session = self.flaky_session(fault_rate=1.0)
        native = FacetedAnalyticsSession(products_graph())
        marker = native.class_markers()[0]
        session.select_class(marker.cls)
        assert session.extension == native.select_class(marker.cls).extension
        session.back()
        assert len(session.history()) == 1

    def test_health_counters(self):
        session = self.flaky_session(fault_rate=0.0)
        session.class_markers()
        health = session.facet_engine.health()
        assert health["incidents"] == 0
        assert health["stale_serves"] == 0
        assert health["dropped"] == 0
        assert health["outcomes"] == {"ok": 1}


def _flagged(marker):
    return replace(marker, approximate=True,
                   children=tuple(map(_flagged, marker.children)))


MANUFACTURER = (PropertyRef(EX.manufacturer),)

#: What a session counts through an endpoint, by the call: ``(incident
#: label, call, empty value, served-before value → its stale serve)``.
#: The three count operations, and applicable properties — the
#: listing's steps, so they fail as the listing.
COUNT_OPERATIONS = [
    ("class_markers", lambda s: s.class_markers(expanded=True), [],
     lambda fresh: [_flagged(marker) for marker in fresh]),
    ("listing",
     lambda s: s.applicable_properties(include_inverse=True), [],
     lambda fresh: fresh),
    ("listing", lambda s: s.all_facets(include_inverse=True), [],
     lambda fresh: [replace(facet, approximate=True) for facet in fresh]),
    ("facet manufacturer", lambda s: s.facet(MANUFACTURER),
     PropertyFacet(path=MANUFACTURER, count=0, values=(), approximate=True),
     lambda fresh: replace(fresh, approximate=True)),
]


@pytest.mark.parametrize("served_before", [False, True])
@pytest.mark.parametrize("label, call, empty, stale", COUNT_OPERATIONS, ids=[
    "class_markers", "applicable_properties", "listing", "facet manufacturer"])
def test_one_degradation_rule_for_every_count_operation(
        label, call, empty, stale, served_before):
    """Through a resilient wrapper over a simulated remote, a count
    operation that fails is served its last value flagged approximate
    (a property list has no flag) when it was served before, else its
    empty value; either way its failure is exactly one incident under
    its label."""
    session = FacetedAnalyticsSession(products_graph(), endpoint=flaky_endpoint(
        network=NetworkModel.offpeak(), retry=RetryPolicy.none(), breaker=None))
    fresh = call(session) if served_before else None
    assert not session.facet_engine.incidents
    session.endpoint.inner.faults = FaultModel.uniform(1.0)
    served = call(session)
    (event,) = session.facet_engine.incidents
    assert (event.operation, event.stale) == (label, served_before)
    assert isinstance(event.error, EndpointError)
    assert served == (stale(fresh) if served_before else empty)
    assert served or not served_before


class TestTempClassHygiene:
    """The temp class lives in a view, never in the graph: a read —
    failed mid-batch or not — writes nothing."""

    def test_mid_batch_fault_leaves_the_store_untouched(self):
        """A listing is two queries over one view; a flaky endpoint (no
        retries) fails the second after a good first on some seeds, and
        the listing is then empty and its one dropped incident."""
        graph = FacetedAnalyticsSession(products_graph()).graph
        extension = FacetedAnalyticsSession(graph, closed=True).extension
        before = fingerprint(graph)
        failed_mid_batch = 0
        for seed in range(12):
            endpoint = RemoteEndpointSimulator(
                graph, faults=FaultModel.uniform(0.3), seed=seed)
            engine = SparqlFacetEngine(graph, endpoint)
            facets = engine.counted(
                ("listing", False), engine.view(extension), None)
            if engine.incidents and endpoint.history[0].ok:
                failed_mid_batch += 1
                (event,) = engine.incidents
                assert facets == () and event.operation == "listing"
            assert fingerprint(graph) == before
            assert not temp_residue(graph)
        assert failed_mid_batch

    def test_engine_failure_leaves_graph_clean(self):
        graph = products_graph()
        endpoint = FailFacetCounts(graph)
        engine = SparqlFacetEngine(graph, endpoint)
        extension = FacetedAnalyticsSession(products_graph()).extension
        native_refs = FacetedAnalyticsSession(
            products_graph()).applicable_properties()
        with pytest.raises(EndpointUnavailable):
            engine.facet(extension, (native_refs[0],))
        assert not temp_residue(graph)

    def test_analytics_run_failure_leaves_graph_clean(self):
        graph = products_graph()
        session = FacetedAnalyticsSession(graph, endpoint=flaky_endpoint(
            network=NetworkModel.offpeak(),
            faults=FaultModel.uniform(1.0),
            retry=RetryPolicy.none(), breaker=None))
        refs = _native_refs(graph)
        session.group_by((refs[0],))
        session.measure((refs[1],), "COUNT")
        before = fingerprint(session.graph)
        with pytest.raises(EndpointError):
            session.run("sparql")
        assert not temp_residue(graph)
        assert not temp_residue(session.graph)
        assert fingerprint(session.graph) == before

    def test_resilient_run_matches_native_when_healthy(self):
        graph = products_graph()
        session = FacetedAnalyticsSession(
            graph, endpoint=flaky_endpoint(raw=LocalEndpoint))
        native = FacetedAnalyticsSession(products_graph())
        refs = _native_refs(graph)
        for s in (session, native):
            s.group_by((refs[0],))
            s.measure((refs[1],), "COUNT")
        assert str(session.run("sparql")) == str(native.run("sparql"))
        assert not temp_residue(graph)


def _native_refs(graph):
    return FacetedAnalyticsSession(graph).applicable_properties()


class FailAfter:
    """A LocalEndpoint that can be killed mid-session."""

    def __init__(self, graph, healthy_queries):
        self._inner = LocalEndpoint(graph)
        self.remaining = healthy_queries

    @property
    def history(self):
        return self._inner.history

    @property
    def last(self):
        return self._inner.last

    def kill(self):
        self.remaining = 0

    def query(self, text, overlay=None):
        if self.remaining <= 0:
            raise EndpointUnavailable("503 service unavailable")
        self.remaining -= 1
        return self._inner.query(text, overlay=overlay)


class FailFacetCounts(FailAfter):
    """Fails every aggregate query: every count, property discovery
    included."""

    def __init__(self, graph):
        super().__init__(graph, healthy_queries=10 ** 9)

    def query(self, text, overlay=None):
        if "COUNT" in text or "GROUP BY" in text:
            raise EndpointUnavailable("503 on aggregate query")
        return super().query(text, overlay=overlay)


class TestWrapperComposition:
    def test_resilient_endpoint_usable_by_plain_engine(self):
        graph = products_graph()
        wrapper = ResilientEndpoint(LocalEndpoint(graph))
        engine = SparqlFacetEngine(graph, wrapper)
        extension = FacetedAnalyticsSession(graph).extension
        counts = engine.class_counts(extension)
        assert counts
        assert not temp_residue(graph)
        assert wrapper.last.outcome == "ok"
