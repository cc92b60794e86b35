"""Shared driver of the efficiency experiments (Tables 6.1 / 6.2).

Runs the Q1–Q10 workload over synthetic KGs of three sizes through the
latency-simulated remote endpoint, several repetitions each, and builds
the table: per query, the mean end-to-end time (engine + simulated
network) per dataset size.  Every repetition is an evaluation: the
store's result cache is emptied before each, so no mean averages one
evaluation with cache hits.
"""

import gc

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.endpoint import NetworkModel, RemoteEndpointSimulator
from repro.hifun import translate
from repro.rdf.namespace import EX

from _workload import WORKLOAD

SIZES = (100, 400, 1600)
REPETITIONS = 3


def build_graphs():
    return {
        size: synthetic_graph(SyntheticConfig(laptops=size, seed=13))
        for size in SIZES
    }


def query_texts():
    """Each workload query's SPARQL text by id, rooted at the Laptop
    class: what the endpoint is sent."""
    return {qid: translate(query, root_class=EX.Laptop).text
            for qid, _, query in WORKLOAD}


def run_efficiency(graphs, model: NetworkModel, seed: int = 0):
    """Returns rows: (qid, description, [(engine, network, total) per
    size]), each a mean in seconds."""
    rows = []
    texts = query_texts()
    for qid, description, _ in WORKLOAD:
        means = []
        for size in SIZES:
            endpoint = RemoteEndpointSimulator(
                graphs[size], model, seed=seed + size
            )
            _query_without_collector(endpoint, texts[qid])
            means.append(tuple(
                sum(getattr(s, field) for s in endpoint.history) / REPETITIONS
                for field in ("engine_seconds", "network_seconds",
                              "total_seconds")))
        rows.append((qid, description, means))
    return rows


def _query_without_collector(endpoint, text: str) -> None:
    """The repetitions, each on an emptied result cache, with the cyclic
    collector off as ``timeit`` runs its timings: a collection set off
    by the garbage of earlier work would otherwise land in whichever
    query happens to be running and add its pause, tens of
    milliseconds, to that query's engine time."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPETITIONS):
            endpoint.graph.sparql_cache.clear()
            endpoint.query(text)
    finally:
        if enabled:
            gc.enable()


def render(rows, model_name: str, format_table) -> str:
    headers = ["query", "description"] + [
        f"{s} laptops: engine / total (s)" for s in SIZES
    ]
    body = [
        (
            qid,
            description,
            *(f"{engine:.3f} / {total:.3f}" for engine, _, total in means),
        )
        for qid, description, means in rows
    ]
    title = (
        f"Efficiency — {model_name} hours "
        "(mean per query; total = engine + simulated network)\n"
    )
    return title + format_table(headers, body)
