"""The four scripted workloads, their verification, and the two twins.

A workload is a list of scripted *sessions*; a session is a fixed
sequence of user-visible actions (*steps*) against public functions of
the program.  Every choice a script makes (which value, which interval,
which state) comes from ``random.Random`` seeded by ``(seed, workload,
session index)``, and always picks among the markers the program itself
offered, so no transition can reach the empty set.

The ten analytic shapes are the Q1–Q10 of ``benchmarks/_workload.py``
re-declared as G/Σ button presses (that module is not imported: later
PRs must stay free to change it).  Grouping restrictions become state
refinements and HAVING becomes a refinement on the loaded Answer Frame,
because that is how a session expresses them.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import random
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import AnalysisReport
from repro.endpoint import LocalEndpoint, ResilientEndpoint
from repro.facets.analytics import TEMP_CLASS, AnswerFrame, FacetedAnalyticsSession
from repro.facets.model import ClassMarker, PropertyFacet, State
from repro.facets.session import EmptyTransitionError, FacetedSession
from repro.hifun.features import fco_count, fco_path_count, fco_path_exists
from repro.rdf.bulkload import load_ntriples
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.sharding import PARALLEL_ENV, ShardedGraph
from repro.rdf.terms import Literal

from perf.reference import ReferenceKernel, at_reference_speed
from perf.trace import Tracer

#: The data shape of every run; only ``laptops`` and ``seed`` vary.
COMPANIES, COUNTRIES, CONTINENTS, DRIVES = 100, 30, 5, 1000

MANUFACTURER = (EX.manufacturer,)
COUNTRY = (EX.manufacturer, EX.origin)
CONTINENT = (EX.manufacturer, EX.origin, EX.locatedAt)
DRIVE_CONTINENT = (EX.hardDrive, EX.manufacturer, EX.origin, EX.locatedAt)
PRICE_MAX = 3000


class StepFailed(Exception):
    """A timed step raised; its session is abandoned, the pass goes on."""


# ---------------------------------------------------------------------------
# Canonical step outputs (what the digest hashes)
# ---------------------------------------------------------------------------
def _canon_facet(facet: PropertyFacet) -> str:
    values = ",".join(f"{m.value.n3()}:{m.count}" for m in facet.values)
    return f"{'/'.join(s.name for s in facet.path)}={facet.count}[{values}]"


def _canon_class(marker: ClassMarker) -> str:
    children = ",".join(_canon_class(c) for c in marker.children)
    return f"{marker.cls.n3()}:{marker.count}({children})"


def canon(result) -> str:
    """A deterministic text form of a step's output — a function of the
    data and the script only, never of timing, ids or hash order."""
    if isinstance(result, AnswerFrame):
        rows = ";".join(
            ",".join("-" if t is None else t.n3() for t in row)
            for row in result.rows)
        return f"AF{list(result.columns)}{rows}"
    if isinstance(result, PropertyFacet):
        return _canon_facet(result)
    if isinstance(result, State):
        return f"state:{result.description}:{len(result.extension)}"
    if isinstance(result, FacetedSession):
        return f"session:{len(result.extension)}"
    if isinstance(result, list):
        if result and isinstance(result[0], ClassMarker):
            return "|".join(_canon_class(m) for m in result)
        if result and isinstance(result[0], PropertyFacet):
            return "|".join(_canon_facet(f) for f in result)
        return "|".join(str(item) for item in result)
    if isinstance(result, AnalysisReport):
        return "report:" + ",".join(result.codes())
    return repr(result)


# ---------------------------------------------------------------------------
# One pass over a script
# ---------------------------------------------------------------------------
class Pass:
    """Step latencies, the running output digest, verification verdicts
    and the counters read at session boundaries."""

    def __init__(self, tracer: Tracer, kernel: ReferenceKernel) -> None:
        self.tracer = tracer
        self.kernel = kernel
        self.names: List[str] = []
        self.ms: List[float] = []
        #: reference-kernel time before each step (run_pass adds one
        #: after the last)
        self.kernel_ms: List[float] = []
        self.work: List[int] = []
        self.failures: Dict[int, str] = {}
        self.facet_cache = {"hits": 0, "misses": 0, "invalidations": 0}
        self.counters: Dict[str, float] = {}
        self._digest = hashlib.sha256()
        self._deferred: List[Tuple[int, Callable[[], bool], str]] = []

    def step(self, name: str, fn: Callable, *args, work: int = 0):
        """Time one public call.  The timer brackets the call only; the
        digest update and every check run after it stops."""
        tracer = self.tracer
        index = len(self.names)
        self.names.append(name)
        self.work.append(work)
        self.kernel_ms.append(self.kernel())
        root = -1
        if tracer.active:
            tracer.step = index
            root = tracer.open("step." + name)
        started = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the pass must outlive one bad step
            self.ms.append((perf_counter() - started) * 1e3)
            self.failures[index] = f"{name} raised {exc!r}"
            raise StepFailed(name) from exc
        finally:
            if root >= 0:
                tracer.close(root)
        self.ms.append((perf_counter() - started) * 1e3)
        self._digest.update(f"{name}\t{canon(result)}\n".encode())
        return result

    def expect(self, condition: bool, what: str) -> None:
        """Verdict on the step just taken."""
        if not condition:
            self.failures.setdefault(len(self.names) - 1, what)

    def defer(self, check: Callable[[], bool], what: str) -> None:
        """A costly check on the step just taken, run after the pass."""
        self._deferred.append((len(self.names) - 1, check, what))

    def run_deferred(self) -> None:
        for index, check, what in self._deferred:
            if not check():
                self.failures.setdefault(index, what)
        self._deferred.clear()

    def close_session(self, session: FacetedSession) -> None:
        stats = session.cache_stats()["facets"]
        self.facet_cache["hits"] += stats.hits
        self.facet_cache["misses"] += stats.misses
        self.facet_cache["invalidations"] += stats.invalidations

    def scaled_ms(self) -> List[float]:
        """The step latencies at the host's quiet speed."""
        return at_reference_speed(self.ms, self.kernel_ms)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


@dataclass
class Env:
    """What a script may touch: the closed graph, the seed, the tracer,
    the reference kernel and the input file (for the sharded-load twin)."""

    graph: Graph
    seed: int
    tracer: Tracer
    kernel: ReferenceKernel
    kg_path: str

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.seed, *key)))


# ---------------------------------------------------------------------------
# Script helpers (untimed unless they go through Pass.step)
# ---------------------------------------------------------------------------
def open_session(p: Pass, env: Env) -> FacetedAnalyticsSession:
    return p.step("open_session", FacetedAnalyticsSession, env.graph, None, True)


def refine(fn: Callable, *args) -> int:
    """Apply a refinement if it keeps the extension non-empty; returns
    the number of states pushed (what to ``back()`` out of later)."""
    try:
        fn(*args)
    except EmptyTransitionError:
        return 0
    return 1


def interval_start(rng: random.Random, price: PropertyFacet, width: int) -> Literal:
    """A seeded lower bound among the offered price values, kept clear
    of the top of the range so the interval's selectivity is stable."""
    values = [m.value for m in price.values]
    inner = [v for v in values if v.to_python() <= PRICE_MAX - width]
    return rng.choice(inner or values)


def select_price_interval(session: FacetedSession, rng: random.Random,
                          width: int) -> None:
    low = interval_start(rng, session.facet(EX.price), width)
    session.select_interval(EX.price, low, Literal.of(low.to_python() + width))


def enter_state(session: FacetedSession, kind: str, rng: random.Random) -> None:
    """Refine a fresh session to a state of the given selectivity over
    the Laptop class."""
    session.select_class(EX.Laptop)
    if kind == "value":          # ~1 % of the class
        marker = rng.choice(session.facet(EX.manufacturer).values)
        session.select_value(EX.manufacturer, marker.value)
    elif kind == "narrow":       # ~5 %
        select_price_interval(session, rng, 130)
    elif kind == "interval":     # ~20 %
        select_price_interval(session, rng, 600)
    elif kind == "range2":       # 80 %
        session.select_range(EX.USBPorts, ">=", Literal.of(2))
    elif kind == "range3":       # 40 %
        session.select_range(EX.USBPorts, ">=", Literal.of(3))
    elif kind != "class":        # the whole class
        raise ValueError(kind)


@dataclass(frozen=True)
class Shape:
    """One analytic query as G/Σ button presses."""

    name: str
    groups: Tuple[Tuple[tuple, Optional[str]], ...] = ()
    measure: Optional[tuple] = None
    operations: Sequence[str] = ("COUNT",)
    #: extra refinements before the run: "usb" (USB ≥ 2), "continent"
    refinements: Tuple[str, ...] = ()

    def press(self, session: FacetedAnalyticsSession) -> None:
        session.clear_analytics()
        for path, derived in self.groups:
            session.group_by(path, derived)
        if self.measure is None:
            session.count_items()
        else:
            session.measure(self.measure, self.operations)

    def refine(self, session: FacetedAnalyticsSession, rng: random.Random) -> int:
        pushed = 0
        for refinement in self.refinements:
            if refinement == "usb":
                pushed += refine(session.select_range, EX.USBPorts, ">=",
                                 Literal.of(2))
            else:
                marker = rng.choice(session.facet(DRIVE_CONTINENT).values)
                pushed += refine(session.select_value, DRIVE_CONTINENT,
                                 marker.value)
        return pushed


SHAPES = (
    Shape("Q1"),
    Shape("Q2", measure=(EX.price,), operations=("AVG",)),
    Shape("Q3", groups=((MANUFACTURER, None),)),
    Shape("Q4", groups=((MANUFACTURER, None),), measure=(EX.price,),
          operations=("AVG",)),
    Shape("Q5", groups=((MANUFACTURER, None),), measure=(EX.price,),
          operations=("AVG",), refinements=("usb",)),
    Shape("Q6", groups=((COUNTRY, None),), measure=(EX.price,),
          operations=("AVG",)),
    Shape("Q7", groups=((CONTINENT, None),), measure=(EX.price,),
          operations=("AVG",)),
    Shape("Q8", groups=((MANUFACTURER, None), ((EX.USBPorts,), None)),
          measure=(EX.price,), operations=("AVG", "SUM", "MAX")),
    Shape("Q9", groups=((CONTINENT, None),), measure=(EX.price,),
          operations=("AVG", "MIN")),
    Shape("Q10", groups=((COUNTRY, None), ((EX.releaseDate,), "YEAR")),
          measure=(EX.price,), operations=("AVG",),
          refinements=("usb", "continent")),
)
SHAPE = {shape.name: shape for shape in SHAPES}
SPARQL_SHAPES = tuple(SHAPE[name] for name in ("Q1", "Q3", "Q4", "Q6", "Q7", "Q8"))


def answer_rows(frame: AnswerFrame) -> List[tuple]:
    return [tuple(None if t is None else t.n3() for t in row) for row in frame.rows]


def same_answer(env: Env, extension, shape: Shape, rows: List[tuple],
                engine: str) -> bool:
    """Does ``engine`` give ``rows`` for ``shape`` over ``extension``?
    (Propositions 1–2 when ``engine`` is the SPARQL pipeline.)"""
    session = FacetedAnalyticsSession(env.graph, results=extension, closed=True)
    shape.press(session)
    return answer_rows(session.run(engine)) == rows


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    #: sessions of the timed pass at the contract's ``run_seconds``
    sessions = 0

    def __init__(self, env: Env) -> None:
        self.env = env

    def begin(self, p: Pass) -> None:
        """Per-pass set-up (untimed)."""

    def session(self, p: Pass, k: int, verify: bool) -> None:
        raise NotImplementedError

    def end(self, p: Pass) -> None:
        """Per-pass counters and whole-pass checks (untimed)."""

    def twins(self) -> Dict[str, float]:
        """Extra per-layer metrics of the traced trial: the same work on
        a variant of the program (never part of an end-to-end number)."""
        return {}


class Explore(Workload):
    name = "explore"
    why = ("faceted navigation on the flat store: facets.session, rdf.graph POS "
           "scans and caching do the work, hifun and sparql none")
    sessions = 12

    def session(self, p: Pass, k: int, verify: bool) -> None:
        env = self.env
        rng = env.rng(self.name, k)
        checks = env.rng(self.name, k, "checks")
        session = open_session(p, env)

        def listing():
            facets = p.step("all_facets", session.all_facets,
                            work=len(session.extension))
            p.expect(all(m.count > 0 for f in facets for m in f.values),
                     "a listed marker has count 0")
            if verify and checks.random() < 0.125:
                p.defer(lambda e=session.extension: same_listing(env, e, facets),
                        "all_facets differs from the per-facet computation")
            return facets

        p.step("class_markers", session.class_markers)
        p.step("select_class", session.select_class, EX.Laptop)
        facets = listing()
        marker = rng.choice(facet_of(facets, EX.manufacturer).values)
        state = p.step("select_value", session.select_value, EX.manufacturer,
                       marker.value)
        p.expect(len(state.extension) == marker.count,
                 "extension size differs from the clicked marker's count")
        listing()
        p.step("back", session.back)
        revisit = p.step("all_facets_revisit", session.all_facets)
        p.expect(revisit == facets, "revisited listing differs")
        p.step("select_range", session.select_range, EX.USBPorts, ">=",
               Literal.of(2 + k % 2))
        facets = listing()
        p.step("expand_path", session.expand_path, EX.manufacturer, EX.origin)
        low = interval_start(rng, facet_of(facets, EX.price), 600)
        p.step("select_interval", session.select_interval, EX.price, low,
               Literal.of(low.to_python() + 600))
        listing()
        p.step("class_markers", session.class_markers)
        p.close_session(session)

    def twins(self) -> Dict[str, float]:
        return sharding_twin(self.env)


def facet_of(facets: Sequence[PropertyFacet], prop) -> PropertyFacet:
    return next(f for f in facets if f.path[0].prop == prop)


def same_listing(env: Env, extension, facets: Sequence[PropertyFacet]) -> bool:
    fresh = FacetedSession(env.graph, results=extension, closed=True)
    return all(fresh.facet(facet.path) == facet for facet in facets)


class Analytics(Workload):
    name = "analytics"
    why = ("group-by/aggregate on the native engine, read-only: hifun.columnar and rdf.columns "
           "dominate, facet scans are negligible, no store write happens")
    sessions = 9
    kinds = ("value", "narrow", "interval", "range3", "value", "narrow",
             "interval", "range3", "range3")

    def session(self, p: Pass, k: int, verify: bool) -> None:
        env = self.env
        rng = env.rng(self.name, k)
        checks = env.rng(self.name, k, "checks")
        session = open_session(p, env)
        enter_state(session, self.kinds[k % len(self.kinds)], rng)

        def run(step: str, shape: Shape) -> AnswerFrame:
            shape.press(session)
            frame = p.step(step, session.run, "native",
                           work=len(session.extension))
            if verify:
                extension, rows = session.extension, answer_rows(frame)
                draw = checks.random()
                if draw < 0.2:
                    p.defer(lambda: same_answer(env, extension, shape, rows, "row"),
                            f"{shape.name}: native differs from the row engine")
                if draw < 0.1:
                    p.defer(lambda: same_answer(env, extension, shape, rows, "sparql"),
                            f"{shape.name}: native differs from the SPARQL pipeline")
            return frame

        frames = {}
        for shape in SHAPES:
            pushed = shape.refine(session, rng)
            frames[shape.name] = run("run.native", shape)
            for _ in range(pushed):
                session.back()
        SHAPE["Q4"].press(session)
        p.step("analyze", session.analyze_query)

        # The Answer Frame as a dataset; a restriction there is a HAVING.
        frame = frames["Q8"]
        loaded = p.step("af_explore", frame.explore)
        p.step("af_all_facets", loaded.all_facets)
        averages = sorted((t for t in frame.column("avg_price") if t is not None),
                          key=lambda t: t.sort_key())
        having = p.step("af_having", loaded.select_range,
                        frame.column_property("avg_price"), ">=",
                        averages[len(averages) // 2])
        p.expect(0 < len(having.extension) <= len(frame),
                 "HAVING refinement kept an impossible number of rows")
        p.step("af_all_facets", loaded.all_facets)
        p.close_session(loaded)

        # Roll-up country → continent, then drill back down.
        SHAPE["Q6"].press(session)
        run("run.rollup", SHAPE["Q7"])
        run("run.drilldown", SHAPE["Q6"])
        p.close_session(session)

    def twins(self) -> Dict[str, float]:
        return engine_twins(self.env)


class Sparql(Workload):
    name = "sparql"
    why = ("the paper's pipeline, writes beside reads: translate, parse, evaluate "
           "under a temp class that bumps the generation and flushes every cache")
    sessions = 12
    kinds = ("value", "narrow", "interval", "range3")

    def begin(self, p: Pass) -> None:
        self.endpoint = ResilientEndpoint(LocalEndpoint(self.env.graph))
        self.size = len(self.env.graph)

    def session(self, p: Pass, k: int, verify: bool) -> None:
        env, graph = self.env, self.env.graph
        session = open_session(p, env)
        # 4 kinds × 3 shape pairs: all 12 combinations before repeating.
        enter_state(session, self.kinds[k % 4], env.rng(self.name, k))
        items = len(session.extension)
        for shape in SPARQL_SHAPES[2 * k % 6:][:2]:
            shape.press(session)
            rows = None
            for _ in range(2):
                frame = p.step("run.sparql", session.run, "sparql", self.endpoint,
                               work=items)
                p.expect(graph.count(None, RDF.type, TEMP_CLASS) == 0
                         and len(graph) == self.size,
                         "the temp class leaked into the store")
                if rows is None:
                    rows = answer_rows(frame)
                    if verify:
                        # (binds the extension, not the session: a check
                        # must not keep a session's caches alive)
                        p.defer(lambda e=session.extension, s=shape, r=rows:
                                same_answer(env, e, s, r, "native"),
                                f"{shape.name}: SPARQL pipeline differs from native")
                else:
                    p.expect(answer_rows(frame) == rows,
                             "the repeated run gave another answer")
                p.step("all_facets", session.all_facets, work=items)
        p.close_session(session)

    def end(self, p: Pass) -> None:
        history = self.endpoint.history
        retries = sum(max(0, s.attempts - 1) for s in history)
        p.expect(retries == 0 and all(s.ok for s in history),
                 "the endpoint retried or failed at fault rate 0")
        p.counters["endpoint.queries"] = len(history)
        p.counters["endpoint.retries"] = retries
        p.counters["endpoint.engine_s"] = sum(s.engine_seconds for s in history)


class Update(Workload):
    name = "update"
    why = ("the store's write path beside reads: add/remove index maintenance, "
           "exact stats, and listings made cold by every generation bump")
    sessions = 20
    batch_laptops = 300
    operators = (
        lambda: fco_count(EX.hardDrive),
        lambda: fco_path_exists(EX.manufacturer, EX.origin),
        lambda: fco_path_count(EX.manufacturer, EX.origin),
    )

    def begin(self, p: Pass) -> None:
        graph = self.env.graph
        self.size = len(graph)
        self.predicate_counts = graph.predicate_counts()
        probe = FacetedSession(graph, closed=True)
        self.class_markers = probe.class_markers()
        probe.select_class(EX.Laptop)
        self.laptops = len(probe.extension)
        self.by_manufacturer = {
            m.value: m.count for m in probe.facet(EX.manufacturer).values}

    def batch(self, k: int, rng: random.Random) -> Tuple[list, object]:
        company = EX.term(f"company{rng.randrange(COMPANIES)}")
        start = datetime.date(2023, 1, 1)
        triples = []
        for i in range(self.batch_laptops):
            node = EX.term(f"fresh{k}_{i}")
            triples += [
                (node, RDF.type, EX.Laptop),
                (node, RDF.type, EX.Product),
                (node, EX.manufacturer, company),
                (node, EX.hardDrive, EX.term(f"drive{rng.randrange(DRIVES)}")),
                (node, EX.price, Literal.of(rng.randrange(400, PRICE_MAX))),
                (node, EX.USBPorts, Literal.of(rng.choice((1, 2, 2, 3, 4)))),
                (node, EX.releaseDate,
                 Literal.of(start + datetime.timedelta(days=rng.randrange(365)))),
            ]
        return triples, company

    def session(self, p: Pass, k: int, verify: bool) -> None:
        env, graph = self.env, self.env.graph
        rng = env.rng(self.name, k)
        triples, company = self.batch(k, rng)
        added = p.step("add_all", graph.add_all, triples, work=len(triples))
        p.expect(added == len(triples), "add_all did not insert the whole batch")
        try:
            session = open_session(p, env)
            state = p.step("select_class", session.select_class, EX.Laptop)
            p.expect(len(state.extension) == self.laptops + self.batch_laptops,
                     "the Laptop state misses the batch")
            facets = p.step("all_facets", session.all_facets,
                            work=len(session.extension))
            shown = facet_of(facets, EX.manufacturer).value_for(company)
            p.expect(shown is not None and shown.count ==
                     self.by_manufacturer.get(company, 0) + self.batch_laptops,
                     "the listing does not show the batch")
            SHAPE["Q3"].press(session)
            p.step("run.native", session.run, "native",
                   work=len(session.extension))
            if k % 5 == 0:
                session.select_value(EX.manufacturer, company)
                operator = self.operators[k // 5 % len(self.operators)]()
                created = p.step("apply_transformation",
                                 session.apply_transformation, operator,
                                 work=len(session.extension))
                p.expect(bool(created), "the transformation created no facet")
                p.step("analyze", session.analyze_query)
                for ref in created:
                    triples += list(graph.triples(None, ref.prop, None))
        finally:
            # Whatever happened above, the store goes back to its
            # pre-batch content before the next session starts.
            p.step("remove_batch", self.remove_batch, triples, work=len(triples))
        p.expect(len(graph) == self.size
                 and graph.predicate_counts() == self.predicate_counts,
                 "len(graph) or predicate_counts() did not return to pre-batch")
        while len(session.history()) > 1:
            session.back()
        markers = p.step("class_markers", session.class_markers)
        p.expect(markers == self.class_markers,
                 "class markers did not return to their pre-batch counts")
        p.close_session(session)

    def remove_batch(self, triples: list) -> int:
        remove = self.env.graph.remove
        with self.env.tracer.span("rdf.graph.remove_batch"):
            return sum(remove(s, p_, o) for s, p_, o in triples)


WORKLOADS = {cls.name: cls for cls in (Explore, Analytics, Sparql, Update)}


# ---------------------------------------------------------------------------
# Twins (traced trial only)
# ---------------------------------------------------------------------------
def engine_twins(env: Env) -> Dict[str, float]:
    """Q4 and Q7 on a ~20 % and a 40 % state under each engine name the
    program still accepts — the evidence for deleting twins.  Every run
    is the first of its (state, shape), so no result cache answers it."""
    out = {}
    for engine in ("row", "columnar", "restrictions"):
        samples = []
        try:
            for kind in ("interval", "range3"):
                session = FacetedAnalyticsSession(env.graph, closed=True)
                enter_state(session, kind, env.rng("twins", kind))
                for shape in (SHAPE["Q4"], SHAPE["Q7"]):
                    shape.press(session)
                    started = perf_counter()
                    session.run(engine)
                    samples.append((perf_counter() - started) * 1e3)
        except ValueError:  # the engine name is gone
            continue
        out[f"facets.analytics.run.{engine}.p50_ms"] = median(samples)
    return out


def sharding_twin(env: Env) -> Dict[str, float]:
    """A 4-shard copy of the store replaying explore's listing states:
    the flat store, the shards in turn, and the shards through the fork
    pool (capped at ``nproc``) — each on a fresh session, so cold."""
    states = []
    for k in range(2):
        for kind in ("class", "range2", "range3", "interval", "value"):
            session = FacetedSession(env.graph, closed=True)
            enter_state(session, kind, env.rng("sharding", k))
            states.append(session.extension)

    def listings_p50(graph: Graph, expected: Optional[List[str]]) -> float:
        samples = []
        for index, extension in enumerate(states):
            session = FacetedSession(graph, results=extension, closed=True)
            started = perf_counter()
            got = session.all_facets()
            samples.append((perf_counter() - started) * 1e3)
            if expected is None:
                flat.append(canon(got))
            elif canon(got) != expected[index]:
                raise AssertionError("sharded listing differs from the flat one")
        return median(samples)

    flat: List[str] = []
    out = {"rdf.sharding.facet_counts.flat_p50_ms": listings_p50(env.graph, None)}
    started = perf_counter()
    sharded = ShardedGraph.from_graph(env.graph, shards=4)
    out["rdf.sharding.from_graph.ms"] = (perf_counter() - started) * 1e3

    previous = os.environ.get(PARALLEL_ENV)
    try:
        for mode in ("sequential", "process"):
            os.environ[PARALLEL_ENV] = mode
            # one listing first: it forks the pool outside the timer
            FacetedSession(sharded, results=states[0], closed=True).all_facets()
            out[f"rdf.sharding.facet_counts.{mode}_p50_ms"] = listings_p50(sharded, flat)
    finally:
        sharded.close()
        if previous is None:
            del os.environ[PARALLEL_ENV]
        else:
            os.environ[PARALLEL_ENV] = previous

    started = perf_counter()
    _, report = load_ntriples(env.kg_path, shards=4)
    out["rdf.sharding.load_ntriples.triples_per_s"] = (
        report.triples_added / (perf_counter() - started))
    return out
