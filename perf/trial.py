"""One trial: set-up → warm-up → one timed pass → verification.

``run_trial`` is what a trial subprocess executes (and what the smoke
test calls in-process).  It returns a plain dict: the end-to-end values
of this trial, the output digest, the failures, and — in a traced trial
— the per-layer metrics and the twins.

A traced trial makes the pass twice in the same process, first with the
wrappers not yet installed (the reference) and then traced, so
``trace.overhead_share`` compares like with like: same process, same
address-space layout, same warm graph-level caches.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
from statistics import median
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.facets.analytics import FacetedAnalyticsSession
from repro.rdf.bulkload import load_file
from repro.rdf.ntriples import parse_lines
from repro.sparql import parse_cache_stats

from perf import trace
from perf.reference import ReferenceKernel, slowdown
from perf.workloads import WORKLOADS, Env, Pass, StepFailed, Workload

WARMUP_SESSIONS = 3


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (the value at rank ⌈share·n⌉)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def set_up(kg_path: str, kernel: ReferenceKernel
           ) -> Tuple[FacetedAnalyticsSession, Dict[str, float]]:
    """What every CLI start pays: parse + index, RDFS closure, first
    screen.  Nothing is persisted, so this is never amortised.

    ``*_s`` are wall-clock; ``setup_s`` is their sum at the host's quiet
    speed, each phase scaled by the kernel samples on either side of it.
    """
    rss_before = _rss_mb()
    k0 = kernel.sample()
    t0 = perf_counter()
    graph, report = load_file(kg_path)
    t1 = perf_counter()
    k1 = kernel.sample()
    t2 = perf_counter()
    session = FacetedAnalyticsSession(graph)
    t3 = perf_counter()
    k2 = kernel.sample()
    t4 = perf_counter()
    session.class_markers()
    session.all_facets(include_inverse=True)
    t5 = perf_counter()
    k3 = kernel.sample()
    closed = len(session.graph)
    phases = {"load_s": t1 - t0, "closure_s": t3 - t2, "first_screen_s": t5 - t4}
    return session, {
        **phases,
        "setup_s": sum(seconds / slowdown(before + after) for seconds, before, after
                       in zip(phases.values(), (k0, k1, k2), (k1, k2, k3))),
        "loaded_triples": report.triples_added,
        "closed_triples": closed,
        "bytes_per_triple": (_rss_mb() - rss_before) * 2**20 / closed,
    }


def run_pass(workload: Workload, sessions: int, verify: bool) -> Pass:
    env = workload.env
    graph = env.graph
    p = Pass(env.tracer, env.kernel)
    workload.begin(p)
    before = _graph_counters(graph)
    for k in range(sessions):
        try:
            workload.session(p, k, verify)
        except StepFailed:
            continue
    p.kernel_ms.append(env.kernel())
    after = _graph_counters(graph)
    p.counters.update({key: after[key] - before[key] for key in after})
    workload.end(p)
    return p


def _graph_counters(graph) -> Dict[str, int]:
    sparql, parse = graph.sparql_cache.stats(), parse_cache_stats()
    return {
        "generation": graph.generation,
        "sparql.hits": sparql.hits, "sparql.misses": sparql.misses,
        "sparql.invalidations": sparql.invalidations,
        "parse.hits": parse.hits, "parse.misses": parse.misses,
    }


def end_to_end(trials: Sequence[dict]) -> Dict[str, float]:
    """The end-to-end values of a set of trials of one workload.

    A step's latency is the median over the trials of its latency at the
    host's quiet speed (perf/reference.py); p50, p90 and the rate are
    then taken over the scripted steps.  Set-up time and peak RSS are
    medians over the trials.
    """
    if len({len(t["ms"]) for t in trials}) == 1:
        ms = [median(step) for step in zip(*(t["ms"] for t in trials))]
    else:  # a trial lost steps to a failure; it is reported as failed
        ms = trials[0]["ms"]
    return {
        "setup_s": median(t["setup"]["setup_s"] for t in trials),
        "step_p50_ms": median(ms),
        "step_p90_ms": percentile(ms, 0.9),
        "steps_per_s": len(ms) / (sum(ms) / 1e3),
        "peak_rss_mb": median(t["peak_rss_mb"] for t in trials),
    }


def run_trial(spec: dict) -> dict:
    """``spec``: workload, seed, kg (path of the .nt input), sessions,
    trace (bool), verify (bool: also run the costly checks — one trial
    per run does, the others must reproduce its digest), out (directory
    for the trace dump)."""
    tracer = trace.Tracer()
    rss_before = _rss_mb()
    kernel = ReferenceKernel()
    kernel_mb = _rss_mb() - rss_before
    parse_rate = 0.0
    if spec["trace"]:
        # Parse-only pass over the input, to split load into parse and index.
        started = perf_counter()
        with open(spec["kg"], encoding="utf-8") as handle:
            lines = sum(1 for _ in parse_lines(handle))
        parse_rate = lines / (perf_counter() - started)

    session, setup = set_up(spec["kg"], kernel)
    env = Env(session.graph, spec["seed"], tracer, kernel, spec["kg"])
    workload = WORKLOADS[spec["workload"]](env)
    sessions = spec["sessions"]
    del session

    run_pass(workload, min(WARMUP_SESSIONS, sessions), verify=False)
    gc.collect()
    gc.freeze()
    try:
        timed = run_pass(workload, sessions,
                         verify=spec["verify"] and not spec["trace"])
        # before verification, whose own engines would raise the peak;
        # without the reference kernel's own data
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                       - kernel_mb)
        timed.run_deferred()
        result = {
            "workload": workload.name,
            "steps": len(timed.names),
            "failed": len(timed.failures),
            "failures": sorted(set(timed.failures.values())),
            "digest": timed.digest,
            "ms": timed.scaled_ms(),
            "host_slowdown": slowdown(timed.kernel_ms),
            "setup": setup,
            "peak_rss_mb": peak_rss_mb,
        }
        if spec["trace"]:
            with trace.installed(tracer):
                tracer.active = True
                traced = run_pass(workload, sessions, verify=True)
                tracer.active = False
            traced.run_deferred()
            result["failed"] += len(traced.failures)
            result["failures"] += sorted(set(traced.failures.values()))
            if traced.digest != timed.digest:
                result["failed"] += 1
                result["failures"].append("the traced pass gave other outputs")
            result["layers"] = layer_metrics(
                tracer, traced, timed, setup, parse_rate, workload.twins())
            os.makedirs(spec["out"], exist_ok=True)
            path = os.path.join(spec["out"], f"trace-{workload.name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"steps": traced.names, **tracer.dump()}, handle)
    finally:
        gc.unfreeze()
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ---------------------------------------------------------------------------
#: (metric, unit, better, the end-to-end metric it should move).  A
#: metric whose spans did not occur on a workload reads 0 there — which
#: is itself the bypass prediction (e.g. ``sparql.*`` on ``analytics``).
LAYER_METRICS = (
    ("rdf.ntriples.parse_lines.lines_per_s", "1/s", "higher", "setup_s"),
    ("rdf.bulkload.load_ntriples.triples_per_s", "1/s", "higher", "setup_s"),
    ("rdf.rdfs.closure.ms", "ms", "lower", "setup_s"),
    ("rdf.rdfs.closure.added_triples", "count", "lower", "setup_s"),
    ("facets.session.startup.ms", "ms", "lower", "setup_s"),
    ("rdf.graph.bytes_per_triple", "B", "lower", "peak_rss_mb"),
    ("facets.session.all_facets.cold_p50_ms", "ms", "lower", "step_p50_ms"),
    ("facets.session.all_facets.revisit_p50_ms", "ms", "lower", "step_p50_ms"),
    ("facets.session.select.p50_ms", "ms", "lower", "step_p90_ms"),
    ("facets.session.expand_path.p50_ms", "ms", "lower", "step_p50_ms"),
    ("facets.session.class_markers.p50_ms", "ms", "lower", "step_p50_ms"),
    ("facets.session.open.p50_ms", "ms", "lower", "step_p50_ms"),
    ("facets.session.self_ms", "ms", "lower", "steps_per_s"),
    ("caching.facets.hit_rate", "ratio", "higher", "step_p50_ms"),
    ("caching.facets.invalidations", "count", "lower", "step_p50_ms"),
    ("caching.sparql.hit_rate", "ratio", "higher", "step_p50_ms"),
    ("caching.sparql.invalidations", "count", "lower", "step_p50_ms"),
    ("caching.parse.hit_rate", "ratio", "higher", "step_p50_ms"),
    ("facets.analytics.run.native.p50_ms", "ms", "lower", "step_p50_ms"),
    ("facets.analytics.self_ms", "ms", "lower", "steps_per_s"),
    ("hifun.evaluate.self_ms", "ms", "lower", "steps_per_s"),
    ("hifun.evaluate.items_per_s", "1/s", "higher", "steps_per_s"),
    ("rdf.columns.follow.ms", "ms", "lower", "step_p50_ms"),
    ("rdf.columns.prefetch.ms", "ms", "lower", "step_p50_ms"),
    ("rdf.columns.decode_column.ms", "ms", "lower", "step_p50_ms"),
    ("facets.analytics.af_explore.p50_ms", "ms", "lower", "step_p50_ms"),
    ("analysis.check_hifun.p50_ms", "ms", "lower", "step_p50_ms"),
    ("analysis.infer_schema.ms", "ms", "lower", "steps_per_s"),
    ("facets.analytics.run.row.p50_ms", "ms", "lower", "none"),
    ("facets.analytics.run.columnar.p50_ms", "ms", "lower", "none"),
    ("facets.analytics.run.restrictions.p50_ms", "ms", "lower", "none"),
    ("hifun.translate.p50_ms", "ms", "lower", "step_p50_ms"),
    ("sparql.parse.p50_ms", "ms", "lower", "step_p50_ms"),
    ("sparql.evaluate.p50_ms", "ms", "lower", "step_p90_ms"),
    ("sparql.self_ms", "ms", "lower", "steps_per_s"),
    ("facets.sparql_backend.temp_materialize.ms", "ms", "lower", "step_p50_ms"),
    ("facets.sparql_backend.temp_clear.ms", "ms", "lower", "step_p50_ms"),
    ("facets.sparql_backend.temp_triples", "count", "lower", "step_p50_ms"),
    ("endpoint.engine_s", "s", "lower", "step_p50_ms"),
    ("endpoint.overhead_ms", "ms", "lower", "step_p50_ms"),
    ("endpoint.retries", "count", "lower", "step_p90_ms"),
    ("rdf.graph.add_per_s", "1/s", "higher", "steps_per_s"),
    ("rdf.graph.remove_per_s", "1/s", "higher", "steps_per_s"),
    ("rdf.graph.generation_bumps", "count", "lower", "step_p50_ms"),
    ("rdf.sharding.from_graph.ms", "ms", "lower", "none"),
    ("rdf.sharding.facet_counts.flat_p50_ms", "ms", "lower", "none"),
    ("rdf.sharding.facet_counts.sequential_p50_ms", "ms", "lower", "none"),
    ("rdf.sharding.facet_counts.process_p50_ms", "ms", "lower", "none"),
    ("rdf.sharding.load_ntriples.triples_per_s", "1/s", "higher", "none"),
    ("trace.unattributed_share", "ratio", "lower", "none"),
    ("trace.overhead_share", "ratio", "lower", "none"),
)


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: trace.Tracer, traced: Pass, reference: Pass,
                  setup: Dict[str, float], parse_rate: float,
                  twins: Dict[str, float]) -> Dict[str, float]:
    spans = tracer.spans
    self_by_name = tracer.self_ms_by_name()

    def durations(name: str, steps: Sequence[str] = (), top: bool = False) -> List[float]:
        """Durations (ms) of the spans whose name starts with ``name`` —
        optionally only inside the steps called ``steps``, or only
        directly under a step's root span."""
        return [
            (s[2] - s[1]) * 1e3 for s in spans
            if s[0].startswith(name)
            and (not steps or traced.names[s[4]] in steps)
            and (not top or spans[s[3]][0].startswith("step."))
        ]

    def p50(values: List[float]) -> float:
        return median(values) if values else 0.0

    def work(*steps: str) -> int:
        return sum(w for n, w in zip(traced.names, traced.work) if n in steps)

    def per_second(amount: float, ms: float) -> float:
        return amount / (ms / 1e3) if ms else 0.0

    def layer_self(layer: str) -> float:
        return sum(ms for name, ms in self_by_name.items()
                   if trace.layer_of(name) == layer)

    counters = traced.counters
    native_runs = ("run.native", "run.rollup", "run.drilldown")
    out = {
        "rdf.ntriples.parse_lines.lines_per_s": parse_rate,
        "rdf.bulkload.load_ntriples.triples_per_s":
            setup["loaded_triples"] / setup["load_s"],
        "rdf.rdfs.closure.ms": setup["closure_s"] * 1e3,
        "rdf.rdfs.closure.added_triples":
            setup["closed_triples"] - setup["loaded_triples"],
        "facets.session.startup.ms": setup["first_screen_s"] * 1e3,
        "rdf.graph.bytes_per_triple": setup["bytes_per_triple"],
        "facets.session.all_facets.cold_p50_ms":
            p50(durations("facets.session.all_facets", steps=("all_facets",))),
        "facets.session.all_facets.revisit_p50_ms":
            p50(durations("facets.session.all_facets", steps=("all_facets_revisit",))),
        "facets.session.select.p50_ms":
            p50(durations("facets.session.select_", top=True)),
        "facets.session.expand_path.p50_ms":
            p50(durations("facets.session.expand_path")),
        "facets.session.class_markers.p50_ms":
            p50(durations("facets.session.class_markers")),
        "facets.session.open.p50_ms":
            p50(durations("facets.session.open", steps=("open_session",))),
        "facets.session.self_ms": layer_self("facets.session"),
        "caching.facets.hit_rate":
            _rate(traced.facet_cache["hits"], traced.facet_cache["misses"]),
        "caching.facets.invalidations": traced.facet_cache["invalidations"],
        "caching.sparql.hit_rate":
            _rate(counters["sparql.hits"], counters["sparql.misses"]),
        "caching.sparql.invalidations": counters["sparql.invalidations"],
        "caching.parse.hit_rate":
            _rate(counters["parse.hits"], counters["parse.misses"]),
        "facets.analytics.run.native.p50_ms":
            p50(durations("facets.analytics.run", steps=native_runs)),
        "facets.analytics.self_ms": layer_self("facets.analytics"),
        "hifun.evaluate.self_ms": self_by_name.get("hifun.evaluate", 0.0),
        "hifun.evaluate.items_per_s":
            per_second(work(*native_runs), sum(durations("hifun.evaluate"))),
        "rdf.columns.follow.ms": sum(durations("rdf.columns.follow")),
        "rdf.columns.prefetch.ms": sum(durations("rdf.columns.prefetch")),
        "rdf.columns.decode_column.ms": sum(durations("rdf.columns.decode_column")),
        "facets.analytics.af_explore.p50_ms":
            p50(durations("facets.analytics.af_explore")),
        "analysis.check_hifun.p50_ms": p50(durations("analysis.check_hifun")),
        "analysis.infer_schema.ms": sum(durations("analysis.infer_schema")),
        "hifun.translate.p50_ms": p50(durations("hifun.translate")),
        "sparql.parse.p50_ms": p50(durations("sparql.parse")),
        "sparql.evaluate.p50_ms": p50(durations("sparql.evaluate")),
        "sparql.self_ms": layer_self("sparql"),
        "facets.sparql_backend.temp_materialize.ms":
            sum(durations("facets.sparql_backend.temp_materialize")),
        "facets.sparql_backend.temp_clear.ms":
            sum(durations("facets.sparql_backend.temp_clear")),
        "facets.sparql_backend.temp_triples": work("run.sparql"),
        "endpoint.engine_s": counters.get("endpoint.engine_s", 0.0),
        "endpoint.overhead_ms": layer_self("endpoint"),
        "endpoint.retries": counters.get("endpoint.retries", 0),
        "rdf.graph.add_per_s": per_second(
            work("add_all"), sum(durations("rdf.graph.add_all", steps=("add_all",)))),
        "rdf.graph.remove_per_s": per_second(
            work("remove_batch"), sum(durations("rdf.graph.remove_batch"))),
        "rdf.graph.generation_bumps": counters["generation"],
        "trace.unattributed_share":
            layer_self("step") / sum(durations("step.")),
        "trace.overhead_share":
            median(traced.scaled_ms()) / median(reference.scaled_ms()) - 1,
        **twins,
    }
    return {name: float(out.get(name, 0.0)) for name, *_ in LAYER_METRICS}
