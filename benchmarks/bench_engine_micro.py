"""Micro-benchmarks of the SPARQL engine primitives.

Supporting measurements for §6.4: BGP join throughput, aggregation,
path closure, parsing — the building blocks every interactive action
reduces to.  Engine measurements bypass the generation-stamped result
cache (``use_cache=False``) so they time actual evaluation; the two
``*_cached`` benchmarks time the cache-hit path by contrast.
"""

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.sparql import parse_query, query

GRAPH = synthetic_graph(SyntheticConfig(laptops=300, seed=31))

JOIN_QUERY = """
SELECT ?l ?c WHERE {
  ?l a ex:Laptop .
  ?l ex:manufacturer ?m .
  ?m ex:origin ?c .
}
"""

AGG_QUERY = """
SELECT ?m (AVG(?p) AS ?avg) (COUNT(?l) AS ?n) WHERE {
  ?l a ex:Laptop .
  ?l ex:manufacturer ?m .
  ?l ex:price ?p .
} GROUP BY ?m
"""

PATH_QUERY = "SELECT ?c WHERE { ?l a ex:Laptop . ?l ex:manufacturer/ex:origin/ex:locatedAt ?c }"

FILTER_QUERY = """
SELECT ?l WHERE {
  ?l a ex:Laptop .
  ?l ex:price ?p .
  ?l ex:USBPorts ?u .
  FILTER(?p > 1000 && ?u >= 2)
}
"""


def test_bgp_join(benchmark):
    result = benchmark(query, GRAPH, JOIN_QUERY, use_cache=False)
    assert len(result) == 300


def test_bgp_join_cached(benchmark):
    """The same join served by the generation-stamped result cache."""
    query(GRAPH, JOIN_QUERY)  # populate
    result = benchmark(query, GRAPH, JOIN_QUERY)
    assert len(result) == 300
    assert GRAPH.sparql_cache.stats().hits > 0


def test_grouped_aggregation(benchmark):
    result = benchmark(query, GRAPH, AGG_QUERY, use_cache=False)
    assert len(result) == 20


def test_property_path(benchmark):
    result = benchmark(query, GRAPH, PATH_QUERY, use_cache=False)
    assert len(result) == 300


def test_filter_evaluation(benchmark):
    result = benchmark(query, GRAPH, FILTER_QUERY, use_cache=False)
    assert len(result) > 0


def test_parse_throughput(benchmark):
    parsed = benchmark(parse_query, AGG_QUERY, use_cache=False)
    assert parsed.group_by


def test_parse_cached(benchmark):
    """The same text answered by the LRU parse cache."""
    parse_query(AGG_QUERY)  # populate
    parsed = benchmark(parse_query, AGG_QUERY)
    assert parsed.group_by
