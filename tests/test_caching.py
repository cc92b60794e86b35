"""Tests of the caching layer: the LRU primitives, the parse cache,
the generation-stamped SPARQL result cache, and the facet-count cache —
in particular that *every* mutation path (add/remove, the temp-class
device, analytics runs, answer loading) invalidates stale entries, and
that degraded/approximate counts never land in the fresh cache."""

import pytest

from repro.caching import MISSING, GenerationCache, LRUCache
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.facets.model import PropertyRef
from repro.rdf.overlay import ExtensionView
from repro.rdf import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.terms import Literal
from repro.sparql import clear_parse_cache, parse_cache_stats, parse_query, query
from tests.test_chaos_facets import flaky_endpoint


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(maxsize=4, name="t")
        assert cache.get("a") is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestGenerationCache:
    def test_hit_requires_matching_generation(self):
        cache = GenerationCache()
        cache.put("k", 7, "value")
        assert cache.get("k", 7) == "value"
        assert cache.get("k", 8) is MISSING
        stats = cache.stats()
        assert stats.invalidations == 1
        assert "k" not in cache  # the dead entry was dropped

    def test_restamping_after_recompute(self):
        cache = GenerationCache()
        cache.put("k", 1, "old")
        cache.get("k", 2)  # invalidates
        cache.put("k", 2, "new")
        assert cache.get("k", 2) == "new"


class TestParseCache:
    def test_repeated_parse_hits(self):
        clear_parse_cache()
        before = parse_cache_stats()
        text = "SELECT ?x WHERE { ?x ?p ?o }"
        first = parse_query(text)
        second = parse_query(text)
        assert first is second  # frozen AST, shared on hit
        after = parse_cache_stats()
        assert after.hits == before.hits + 1


@pytest.fixture()
def graph():
    g = Graph()
    g.add(EX.a, RDF.type, EX.Thing)
    g.add(EX.b, RDF.type, EX.Thing)
    g.add(EX.a, EX.price, Literal.of(10))
    return g


COUNT_Q = (
    "SELECT (COUNT(?x) AS ?n) WHERE { ?x "
    f"<{RDF.type.value}> <{EX.Thing.value}> }}"
)


class TestQueryResultCache:
    def test_repeated_query_hits_and_matches(self, graph):
        first = query(graph, COUNT_Q)
        second = query(graph, COUNT_Q)
        assert first[0].value("n") == second[0].value("n") == 2
        assert graph.sparql_cache.stats().hits == 1

    def test_hit_returns_independent_wrapper(self, graph):
        first = query(graph, COUNT_Q)
        first.rows.clear()  # a caller mangling its result …
        second = query(graph, COUNT_Q)
        assert len(second) == 1  # … must not mangle the cache

    def test_mutation_invalidates(self, graph):
        assert query(graph, COUNT_Q)[0].value("n") == 2
        graph.add(EX.c, RDF.type, EX.Thing)
        assert query(graph, COUNT_Q)[0].value("n") == 3
        graph.remove(EX.c, RDF.type, EX.Thing)
        assert query(graph, COUNT_Q)[0].value("n") == 2
        assert graph.sparql_cache.stats().hits == 0

    def test_ask_cached_and_invalidated(self, graph):
        ask = f"ASK {{ <{EX.c.value}> <{RDF.type.value}> <{EX.Thing.value}> }}"
        assert query(graph, ask) is False
        assert query(graph, ask) is False
        assert graph.sparql_cache.stats().hits == 1
        graph.add(EX.c, RDF.type, EX.Thing)
        assert query(graph, ask) is True

    def test_construct_never_cached(self, graph):
        construct = (
            f"CONSTRUCT {{ ?x <{EX.tag.value}> ?x }} WHERE "
            f"{{ ?x <{RDF.type.value}> <{EX.Thing.value}> }}"
        )
        first = query(graph, construct)
        second = query(graph, construct)
        assert first is not second
        first.add(EX.z, EX.tag, EX.z)  # mutating one result is harmless
        assert (EX.z, EX.tag, EX.z) not in second

    def test_view_answers_never_enter_the_store_cache(self, graph):
        """An answer over an extension view depends on its members, so
        it is never cached on the graph, where another extension asking
        the same text would be served it (a session keeps it on its
        state instead)."""
        temp_q = (
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x "
            f"<{RDF.type.value}> <{EX.temp.value}> }}"
        )
        two = ExtensionView(graph, EX.temp, [EX.a, EX.b])
        one = ExtensionView(graph, EX.temp, [EX.a])
        assert query(graph, temp_q)[0].value("n") == 0
        assert query(two, temp_q)[0].value("n") == 2
        assert query(one, temp_q)[0].value("n") == 1
        assert query(two, temp_q)[0].value("n") == 2
        assert query(graph, temp_q)[0].value("n") == 0
        stats = graph.sparql_cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)


def _count(session, prop):
    return session.facet((PropertyRef(prop),)).count


class TestFacetCountCache:
    def test_repeat_served_from_cache(self, session):
        first = session.all_facets()
        hits_before = session.cache_stats()["facets"].hits
        second = session.all_facets()
        assert [f.count for f in first] == [f.count for f in second]
        assert session.cache_stats()["facets"].hits == hits_before + 1

    def test_add_remove_invalidates_counts(self):
        g = Graph()
        g.add(EX.a, RDF.type, EX.Thing)
        g.add(EX.b, RDF.type, EX.Thing)
        g.add(EX.a, EX.color, Literal.of("red"))
        session = FacetedSession(g, closed=True)
        assert _count(session, EX.color) == 1
        session.graph.add(EX.b, EX.color, Literal.of("blue"))
        assert _count(session, EX.color) == 2  # not the stale 1
        session.graph.remove(EX.b, EX.color, Literal.of("blue"))
        assert _count(session, EX.color) == 1
        stats = session.cache_stats()["facets"]
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 3, 2)

    def test_class_markers_invalidate_on_mutation(self, products):
        session = FacetedSession(products)
        before = {m.cls: m.count for m in session.class_markers()}
        # Retype an individual already in the extension into a class it
        # does not belong to yet — its marker count must grow by one.
        cls = next(iter(before))
        instances = set(session.graph.subjects(RDF.type, cls))
        outsider = next(
            t for t in session.extension if t not in instances)
        session.graph.add(outsider, RDF.type, cls)
        after = {m.cls: m.count for m in session.class_markers()}
        assert after[cls] == before[cls] + 1

    def test_analytics_run_roundtrip_keeps_counts_fresh(self, invoices):
        session = FacetedAnalyticsSession(invoices)
        props = session.applicable_properties()
        counts_before = [_count(session, r.prop) for r in props]
        session.count_items()
        session.run()  # temp-class materialization: generation bumps
        counts_after = [_count(session, r.prop) for r in props]
        assert counts_before == counts_after  # recomputed, same answer

    def test_answer_frame_load_gets_own_fresh_cache(self, invoices):
        session = FacetedAnalyticsSession(invoices)
        session.count_items()
        frame = session.run()
        explored = frame.explore()
        assert explored.cache_stats()["facets"].size == 0
        for facet in explored.all_facets():
            assert facet.count > 0


class _KillableEndpoint:
    """A LocalEndpoint with an off switch (the chaos-suite idiom)."""

    def __init__(self, graph):
        from repro.endpoint import LocalEndpoint

        self._inner = LocalEndpoint(graph)
        self.alive = True

    def query(self, text, overlay=None):
        from repro.endpoint import EndpointUnavailable

        if not self.alive:
            raise EndpointUnavailable("503 service unavailable")
        return self._inner.query(text, overlay=overlay)


class TestDegradedNeverCachedFresh:
    def test_dead_endpoint_degrades_without_touching_fresh_cache(self, products):
        endpoint = None

        def factory(g):
            nonlocal endpoint
            endpoint = _KillableEndpoint(g)
            endpoint.alive = False
            return endpoint

        session = FacetedAnalyticsSession(
            products, endpoint=flaky_endpoint(raw=factory, retry=None))
        listing = session.all_facets()
        assert session.facet_engine.incidents  # everything degraded
        # Degraded listings/facets never enter the counts remembered
        # on the state (the facet engine keeps its own stale store,
        # flagged approximate / surfaced as errors).
        assert session.cache_stats()["facets"].size == 0
        for facet in listing:
            assert facet.approximate or facet.count == 0

    def test_stale_serve_is_flagged_not_cached(self, products):
        endpoint = None

        def factory(g):
            nonlocal endpoint
            endpoint = _KillableEndpoint(g)
            return endpoint

        session = FacetedAnalyticsSession(
            products, endpoint=flaky_endpoint(raw=factory, retry=None))
        ref = session.applicable_properties()[0]
        good = session.facet((ref,))
        assert not good.approximate
        endpoint.alive = False
        degraded = session.facet((ref,))
        assert degraded.approximate
        assert degraded.count == good.count  # served stale, flagged
        assert session.cache_stats()["facets"].size == 0
