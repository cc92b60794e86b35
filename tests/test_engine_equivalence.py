"""Engine equivalence on randomized graphs.

The evaluator (``evaluate_hifun``: the translation, evaluated) promises
the item-at-a-time reference engine's answers wherever a query meets
HIFUN's prerequisites (§4.1), and
the shared-scan ``all_facets`` promises, per property, the facet a
single ``facet(path)`` counts (``tests/test_idspace_session.py`` holds
both to the formal definition).  The curated example suites already pin
both on the dissertation's graphs; this module pins them on seeded
*random* graphs — multi-valued properties, missing values, dangling
makers, literal-typed measures — across every query shape the language
has, plus the read-only SPARQL run beside each engine and ``analyze=True``
strict mode.
"""

import datetime
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.datasets import (
    SyntheticConfig,
    invoices_graph,
    products_graph,
    synthetic_graph,
)
from repro.analysis import check_hifun, infer_schema
from repro.endpoint import LocalEndpoint, ResilientEndpoint
from repro.facets.analytics import APP, TEMP_CLASS, AnalyticsStateError
from repro.facets import FacetedAnalyticsSession, FacetedSession
from repro.facets.model import PropertyRef
from repro.hifun import (
    Attribute,
    HifunQuery,
    Restriction,
    ResultRestriction,
    compose,
    pair,
)
from repro.hifun.attributes import Derived
from repro.hifun.evaluator import evaluate_hifun, evaluate_hifun_row
from repro.hifun.translator import translate
from repro.sparql import query as sparql_query
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import Literal, XSD_INTEGER

SEEDS = range(10)

#: ``make fuzz`` runs the write interleaving long, at a random seed.
_FUZZING = settings.get_current_profile_name() == "fuzz"

#: Shard counts pinned by the sharded-store equivalence tests: the
#: degenerate single shard, powers of two, and a prime that leaves the
#: subject-id space unevenly partitioned.
SHARD_COUNTS = (1, 2, 4, 7)

maker = Attribute(EX.maker)
origin = Attribute(EX.origin)
price = Attribute(EX.price)
ports = Attribute(EX.ports)
released = Attribute(EX.released)
made = Attribute(EX.maker, inverse=True)


def random_graph(seed: int, items: int = 30) -> Graph:
    """A seeded random product-ish graph with deliberately ragged data:
    optional and multi-valued properties, makers without origins, and
    items missing the measure entirely."""
    rng = random.Random(seed)
    graph = Graph()
    makers = [EX[f"maker{i}"] for i in range(5)]
    countries = [EX[f"country{i}"] for i in range(3)]
    for index, who in enumerate(makers):
        if rng.random() < 0.8:
            graph.add(who, EX.origin, countries[index % 3])
        if rng.random() < 0.3:  # multi-valued origin
            graph.add(who, EX.origin, countries[(index + 1) % 3])
    for i in range(items):
        item = EX[f"item{i}"]
        graph.add(item, RDF.type, EX.Widget)
        graph.add(item, EX.maker, rng.choice(makers))
        if rng.random() < 0.25:  # multi-valued maker
            graph.add(item, EX.maker, rng.choice(makers))
        if rng.random() < 0.85:  # some items have no price at all
            graph.add(item, EX.price, Literal.of(rng.randrange(10, 500)))
        if rng.random() < 0.6:
            graph.add(item, EX.ports, Literal.of(rng.randrange(0, 4)))
        if rng.random() < 0.5:
            graph.add(item, EX.released, Literal.of(
                datetime.date(2019 + rng.randrange(4), 1 + rng.randrange(12), 5)))
    return graph


#: Every query shape of the language, built fresh per test run.
QUERY_SHAPES = (
    ("ungrouped count", lambda: HifunQuery(None, None, "COUNT")),
    ("grouped count", lambda: HifunQuery(maker, None, "COUNT")),
    ("avg by maker", lambda: HifunQuery(maker, price, "AVG")),
    ("path-2 grouping", lambda: HifunQuery(compose(origin, maker), price, "AVG")),
    ("pairing multi-op", lambda: HifunQuery(
        pair(maker, ports), price, ("SUM", "MIN", "MAX"))),
    ("grouping restriction", lambda: HifunQuery(
        maker, price, "AVG",
        grouping_restrictions=(Restriction(ports, ">=", Literal.of(2)),))),
    ("measure-value restriction", lambda: HifunQuery(
        maker, price, ("AVG", "COUNT"),
        measuring_restrictions=(Restriction(price, ">", Literal.of(100)),))),
    ("derived grouping + having", lambda: HifunQuery(
        Derived("YEAR", released), price, "AVG",
        result_restrictions=(ResultRestriction("AVG", ">", Literal.of(150)),))),
    ("inverse + with_count", lambda: HifunQuery(
        made, None, "COUNT", with_count=True)),
)


@pytest.mark.parametrize("seed", SEEDS)
def test_hifun_answers_identical_on_random_graphs(seed):
    graph = random_graph(seed)
    for label, build in QUERY_SHAPES:
        query = build()
        root = None if "inverse" in label else EX.Widget
        row = evaluate_hifun_row(graph, query, root_class=root)
        native = evaluate_hifun(graph, query, root_class=root)
        assert row.rows() == native.rows(), f"{label} differs at seed {seed}"
        assert row.keys() == native.keys(), label
        assert row.operations == native.operations, label


@pytest.mark.parametrize("seed", SEEDS)
def test_explicit_items_domain_identical(seed):
    """An explicit extension — including items unknown to the graph —
    must evaluate identically (unknown items still count under the
    measureless COUNT)."""
    graph = random_graph(seed)
    items = [EX[f"item{i}"] for i in range(0, 30, 2)] + [EX.ghost]
    for query in (HifunQuery(None, None, "COUNT"),
                  HifunQuery(maker, price, "AVG")):
        row = evaluate_hifun_row(graph, query, items=items)
        native = evaluate_hifun(graph, query, items=items)
        assert row.rows() == native.rows()


@pytest.mark.parametrize("seed", SEEDS)
def test_all_facets_matches_per_facet_scan(seed):
    graph = random_graph(seed)
    session = FacetedSession(graph)
    session.select_class(EX.Widget)
    for include_inverse in (False, True):
        # one facet at a time on a state that was never listed ...
        unlisted = FacetedSession(graph)
        unlisted.select_class(EX.Widget)
        batch = session.all_facets(include_inverse)
        refs = [facet.path[0] for facet in batch]
        assert refs == session.applicable_properties(include_inverse)
        assert refs == unlisted.applicable_properties(include_inverse)
        for facet in batch:
            # ... and read off the listing: both are the listing's entry
            assert facet == unlisted.facet(facet.path), facet.path
            assert facet == session.facet(facet.path), facet.path


class _QueryLog(LocalEndpoint):
    """A local endpoint that keeps the text of every query it is sent."""

    def __init__(self, graph):
        super().__init__(graph)
        self.texts = []

    def query(self, text, overlay=None):
        self.texts.append(text)
        return super().query(text, overlay)


@pytest.mark.parametrize("include_inverse", [False, True])
def test_applicable_properties_are_the_listing_steps(include_inverse):
    """A state's applicable properties are its listing's steps: on a
    native session the lookup leaves the listing on the state (the next
    ``all_facets`` is a memo hit), and through an endpoint it sends
    exactly the listing's queries."""
    graph = random_graph(0)
    native = FacetedSession(graph)
    native.select_class(EX.Widget)
    refs = native.applicable_properties(include_inverse)
    hits = native.cache_stats()["facets"].hits
    assert [facet.prop for facet in native.all_facets(include_inverse)] == refs
    assert native.cache_stats()["facets"].hits == hits + 1

    def remote(operation):
        session = FacetedAnalyticsSession(
            graph, endpoint=lambda g: ResilientEndpoint(_QueryLog(g)))
        session.select_class(EX.Widget)
        served = getattr(session, operation)(include_inverse)
        return served, session.endpoint.inner.texts

    served, sent = remote("applicable_properties")
    listing, listed = remote("all_facets")
    assert served == refs == [facet.prop for facet in listing]
    assert sent == listed and len(sent) == 2 * (1 + include_inverse)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_store_hifun_answers_identical(shards):
    """Partitioning the store must be invisible to both engines: every
    query shape answers byte-identically to the flat row engine."""
    for seed in (0, 3):
        graph = random_graph(seed)
        store = ShardedGraph.from_graph(graph, shards=shards)
        for label, build in QUERY_SHAPES:
            query = build()
            root = None if "inverse" in label else EX.Widget
            row = evaluate_hifun_row(graph, query, root_class=root)
            for evaluate in (evaluate_hifun_row, evaluate_hifun):
                answer = evaluate(store, query, root_class=root)
                assert row.rows() == answer.rows(), (
                    f"{label} differs at seed {seed}, {shards} shards "
                    f"({evaluate.__name__})")
                assert row.keys() == answer.keys(), label


def mixed_arity_graph() -> Graph:
    """One property, ``EX.tag``, with one value on some widgets and
    three on the others.  The three values are interned in the reverse
    of their term sort order, so an unsorted id set reads backwards."""
    graph = Graph()
    tags = [Literal.of(word) for word in ("zeta", "mu", "alpha")]
    for i in range(8):
        item = EX[f"item{i}"]
        graph.add(item, RDF.type, EX.Widget)
        graph.add(item, EX.kind, EX[f"kind{i % 2}"])
        for tag in (tags if i % 3 == 0 else tags[i % 3:i % 3 + 1]):
            graph.add(item, EX.tag, tag)
    return graph


def test_mixed_arity_successors_keep_term_order():
    """SAMPLE and GROUP_CONCAT see a group's values in term order on
    every engine (DESIGN.md, *Semantic forks* (a)) — whatever order the
    store holds them in or a join yields them in."""
    graph = mixed_arity_graph()
    values = graph.objects_ids(graph.encode_term(EX.item0),
                               graph.encode_term(EX.tag))
    assert len(values) == 3
    assert sorted(values) != sorted(  # the fixture's point
        values, key=lambda ident: graph.decode_id(ident).sort_key())
    tag = Attribute(EX.tag)
    concat = HifunQuery(None, tag, ("SAMPLE", "GROUP_CONCAT"))
    assert evaluate_hifun(graph, concat, root_class=EX.Widget).rows() == [(
        Literal.of("alpha"),
        Literal.of("alpha alpha alpha alpha alpha mu mu mu mu mu mu "
                   "zeta zeta zeta"))]
    for query in (
        concat,
        HifunQuery(Attribute(EX.kind), tag, ("SAMPLE", "GROUP_CONCAT", "COUNT")),
        HifunQuery(tag, None, "COUNT"),
    ):
        row = evaluate_hifun_row(graph, query, root_class=EX.Widget)
        assert evaluate_hifun(graph, query, root_class=EX.Widget).rows() == (
            row.rows()), query
    # ``tag`` both grouped and measured: the translation shares its
    # variable (fork (c)), so the SPARQL pipeline is the one to agree with
    shared = HifunQuery(pair(Attribute(EX.kind), tag), tag,
                        ("SAMPLE", "GROUP_CONCAT"))
    pipeline = sparql_query(graph, translate(shared, root_class=EX.Widget).text)
    assert evaluate_hifun(graph, shared, root_class=EX.Widget).rows() == sorted(
        (tuple(row[name] for name in pipeline.variables) for row in pipeline),
        key=lambda row: tuple(t.sort_key() for t in row))


#: What a stale-memo interleaving presses: G on the grouped property
#: (alone, first step of a path, or beside the measured one), Σ on the
#: measured property, order-sensitive aggregates included.
PRESSES = (
    (((EX.maker,),), (EX.price,), ("AVG", "SAMPLE", "GROUP_CONCAT")),
    (((EX.maker, EX.origin),), (EX.price,), ("SUM", "MAX")),
    (((EX.price,),), None, ("COUNT",)),
    (((EX.maker,), (EX.price,)), (EX.maker,), ("COUNT", "GROUP_CONCAT")),
)
WIDGETS = 12


@st.composite
def interleavings(draw):
    """A graph (flat, or 3 shards) and a script: presses from two
    sessions, and between them writes to the grouped and the measured
    property — an ``add`` can make a single-valued widget multi-valued,
    a ``remove`` takes one of its values away again."""
    press = st.tuples(st.just("press"), st.integers(0, 1),
                      st.integers(0, len(PRESSES) - 1))
    write = st.tuples(st.sampled_from(("add", "remove")),
                      st.integers(0, WIDGETS - 1),
                      st.sampled_from((EX.maker, EX.price)), st.integers(0, 4))
    return (draw(st.integers(0, 9)), draw(st.sampled_from((None, 3))),
            draw(st.lists(st.one_of(press, write), min_size=2, max_size=14)))


def _write(graph, verb, widget, prop, k):
    item = EX[f"item{widget}"]
    if verb == "add":
        graph.add(item, prop,
                  EX[f"maker{k}"] if prop == EX.maker else Literal.of(5 * k))
        return
    values = sorted(graph.objects(item, prop), key=lambda t: t.sort_key())
    if values:
        graph.remove(item, prop, values[k % len(values)])


def _pressed(session, index):
    groups, measured, operations = PRESSES[index]
    session.clear_analytics()
    for path in groups:
        session.group_by(path)
    if measured is None:
        session.count_items()
    else:
        session.measure(measured, operations)
    return session


#: What ``check_hifun`` reports for a press outside HIFUN's prerequisites
#: (§4.1), where the row oracle owes the translation no equal answer
#: (DESIGN.md, *Semantic forks* (c)).
OUTSIDE_PREREQUISITES = {"H005", "H006"}


@given(interleavings())
@example((0, None, [("press", 0, 0), ("add", 0, EX.maker, 3),
                    ("press", 1, 0), ("remove", 0, EX.maker, 0),
                    ("press", 0, 0)]))
@example((1, 3, [("press", 0, 2), ("add", 1, EX.price, 1),
                 ("press", 0, 2), ("remove", 1, EX.price, 0),
                 ("press", 1, 3)]))
@settings(derandomize=not _FUZZING, deadline=None,
          max_examples=10_000 if _FUZZING else 60)
def test_native_answers_follow_every_write(case):
    """What a state remembers lives for a graph generation: a press
    after a write — from either of two sessions over the one graph,
    flat or sharded — answers what a session opened fresh over the
    graph as it is then answers, never what an earlier press kept; and
    what the row engine answers there, wherever the press meets HIFUN's
    prerequisites."""
    seed, shards, script = case
    graph = random_graph(seed, items=WIDGETS)
    if shards is not None:
        graph = ShardedGraph.from_graph(graph, shards=shards)
    sessions = [FacetedAnalyticsSession(graph, closed=True) for _ in range(2)]
    for session in sessions:
        session.select_class(EX.Widget)
    for step in script:
        if step[0] != "press":
            _write(graph, *step)
            continue
        session = _pressed(sessions[step[1]], step[2])
        fresh = FacetedAnalyticsSession(graph, closed=True)
        fresh.select_class(EX.Widget)
        rows = session.run("native").rows
        assert rows == _pressed(fresh, step[2]).run("native").rows, step
        query = session.hifun_query()
        report = check_hifun(query, infer_schema(graph), None, graph)
        if not OUTSIDE_PREREQUISITES & set(report.codes()):
            expected = evaluate_hifun_row(graph, query, items=session.extension)
            assert rows == expected.rows(), step


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_store_facets_identical(shards):
    """The sharded merge path of ``all_facets`` (and the per-facet
    reference scan) must reproduce the flat session's listing exactly,
    inverse facets included."""
    graph = random_graph(5)
    flat = FacetedSession(graph)
    flat.select_class(EX.Widget)
    sharded = FacetedSession(ShardedGraph.from_graph(graph, shards=shards))
    sharded.select_class(EX.Widget)
    for include_inverse in (False, True):
        assert (sharded.all_facets(include_inverse)
                == flat.all_facets(include_inverse)), include_inverse
        assert (sharded.applicable_properties(include_inverse)
                == flat.applicable_properties(include_inverse))
    # multi-step paths: the prefix walked, the last step counted by the
    # merged kernel — forward, inverse, and from a marker set of makers
    # (values shared across slices)
    maker, origin = PropertyRef(EX.maker), PropertyRef(EX.origin)
    paths = [(maker, origin), (maker, PropertyRef(EX.maker, True)),
             (maker, origin, PropertyRef(EX.origin, True)),
             (maker, PropertyRef(EX.maker, True), PropertyRef(EX.price))]
    for path in paths:
        assert sharded.facet(path) == flat.facet(path), path
        assert flat.facet(path).values, path
    # a child state's listings, each a scan of its own extension
    for session in (flat, sharded):
        session.select_value(EX.maker, EX.maker1)
    for include_inverse in (False, True):
        assert (sharded.all_facets(include_inverse)
                == flat.all_facets(include_inverse)), include_inverse
    for path in paths:
        assert sharded.facet(path) == flat.facet(path), path


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_store_facet_counts_identical(shards):
    """The one scan kernel, merged over the slices, returns the flat
    store's counters and having-counts exactly — forward and inverse,
    on the whole class, a subset, and an extension holding values
    (makers: the sources of inverse edges, shared across slices)."""
    for seed in (0, 3, 5):
        graph = random_graph(seed)
        store = ShardedGraph.from_graph(graph, shards=shards)
        type_id = graph.encode_term(RDF.type)
        widgets = frozenset(graph.subjects_ids(
            type_id, graph.encode_term(EX.Widget)))
        makers = frozenset(graph.encode_terms(
            EX[f"maker{i}"] for i in range(5)))
        extensions = (widgets, frozenset(sorted(widgets)[::3]),
                      makers | frozenset(sorted(widgets)[:4]), frozenset())
        pids = sorted(graph.all_predicate_ids())
        for ids in extensions:
            for skipped in (frozenset(), frozenset({type_id})):
                for directions in ((False,), (False, True)):
                    slots = [(pid, inverse) for pid in pids
                             if pid not in skipped for inverse in directions]
                    counters, having = graph.facet_counts(ids, slots)
                    assert store.facet_counts(ids, slots) == (counters, having), (
                        seed, sorted(ids), directions)
                    # one slot at a time: that slot's share of the scan
                    # (None: a property the dictionary never saw)
                    for slot in slots + [(None, False), (None, True)]:
                        expected = (
                            {slot: counters[slot]} if slot in counters else {},
                            {slot: having[slot]} if slot in having else {})
                        assert graph.facet_counts(ids, (slot,)) == expected
                        assert store.facet_counts(ids, (slot,)) == expected


def test_engine_choice_is_cache_neutral():
    """Running the analytic query under either engine leaves the same
    facet-cache shape — engines touch the graph, never the cache."""
    def stats_after(engine):
        session = FacetedAnalyticsSession(
            synthetic_graph(SyntheticConfig(laptops=60, seed=5)))
        session.select_class(EX.Laptop)
        session.all_facets()
        session.group_by((EX.manufacturer,))
        session.measure((EX.price,), "AVG")
        frame = session.run(engine)
        stats = session.cache_stats()["facets"]
        return frame.rows, stats.size, stats.hits

    rows_row, size_row, hits_row = stats_after("row")
    rows_col, size_col, hits_col = stats_after("native")
    assert rows_row == rows_col
    assert (size_row, hits_row) == (size_col, hits_col)


@pytest.mark.parametrize("engine", ["row", "native"])
def test_sparql_run_beside_engine_is_read_only(engine):
    """A run on the SPARQL path between two native runs changes nothing
    the native engines depend on: same generation, size and statistics,
    the state's extension view survives, and all three runs agree —
    the last one evaluated afresh by a new session, since this one keeps
    its answer."""
    graph = random_graph(3)

    def pressed():
        session = FacetedAnalyticsSession(graph, closed=True)
        session.select_class(EX.Widget)
        session.group_by((EX.maker,))
        session.measure((EX.price,), "AVG")
        return session

    session = pressed()
    baseline = session.run(engine)
    view = session._extension_view()
    before = (graph.generation, len(graph), graph.predicate_counts())
    assert session.run("sparql").rows == baseline.rows
    assert (graph.generation, len(graph), graph.predicate_counts()) == before
    assert pressed().run(engine).rows == baseline.rows
    assert session._extension_view() is view


@pytest.mark.parametrize("engine", ["row", "native"])
def test_strict_mode_identical_across_engines(engine, products):
    """``analyze=True`` rejects the same ill-typed query before either
    engine runs, and accepts the same well-typed one."""
    from repro.analysis import StaticAnalysisError

    session = FacetedAnalyticsSession(products, analyze=True)
    session.select_class(EX.Laptop)
    session.group_by((EX.manufacturer,))
    session.measure((EX.manufacturer,), "AVG")  # AVG over IRIs: ill-typed
    with pytest.raises(StaticAnalysisError):
        session.run(engine)
    session.measure((EX.price,), "AVG")
    frame = session.run(engine)
    assert len(frame.rows) > 0


# -- one Answer Frame whatever the engine --------------------------------
ENGINES = ("sparql", "native", "row", "restrictions")

#: Per KG: the class clicked first, the G-button candidates as ``(path,
#: ⚙ function)``, the Σ-button candidates as ``(path, operations it can
#: take)`` — ``None`` is "count of items" — and the filters a state may
#: hold.  Every path is functional and every ⚙ function well-typed
#: there, so the engines owe each other equal rows.
NUMERIC_OPS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
KGS = {
    "products": (products_graph, EX.Laptop, [
        ((EX.manufacturer,), None), ((EX.USBPorts,), None),
        ((EX.hardDrive,), None), ((EX.releaseDate,), None),
        ((EX.manufacturer, EX.origin), None),
        ((EX.hardDrive, EX.manufacturer), None),
        ((EX.manufacturer, EX.origin, EX.locatedAt), None),
        ((EX.hardDrive, EX.manufacturer, EX.origin), None),
        ((EX.releaseDate,), "YEAR"), ((EX.releaseDate,), "MONTH"),
        ((EX.hardDrive, EX.releaseDate), "YEAR"),
    ], [
        (None, ("COUNT",)), ((EX.price,), NUMERIC_OPS),
        ((EX.USBPorts,), NUMERIC_OPS), ((EX.hardDrive, EX.price), NUMERIC_OPS),
        ((EX.manufacturer, EX.size), NUMERIC_OPS),
        ((EX.manufacturer, EX.origin), ("COUNT", "MIN", "MAX")),
    ], [
        ((EX.price,), ">=", Literal.of(850)),
        ((EX.manufacturer, EX.origin), "=", EX.US),
    ]),
    "invoices": (invoices_graph, EX.Invoice, [
        ((EX.takesPlaceAt,), None), ((EX.delivers,), None),
        ((EX.hasDate,), None), ((EX.delivers, EX.brand), None),
        ((EX.hasDate,), "MONTH"), ((EX.hasDate,), "DAY"),
    ], [
        (None, ("COUNT",)), ((EX.inQuantity,), NUMERIC_OPS),
        ((EX.delivers, EX.brand), ("COUNT", "MIN", "MAX")),
    ], [
        ((EX.inQuantity,), ">", Literal.of(100)),
        ((EX.delivers, EX.brand), "=", EX.CocaCola),
    ]),
}


@st.composite
def button_states(draw):
    kg = draw(st.sampled_from(sorted(KGS)))
    _, _, groupings, measures, filters = KGS[kg]
    groups = draw(st.lists(st.sampled_from(groupings), min_size=1, max_size=3,
                           unique=True))
    measured, allowed = draw(st.sampled_from(measures))
    operations = draw(st.lists(st.sampled_from(allowed), min_size=1,
                               max_size=min(3, len(allowed)), unique=True))
    return (kg, groups, measured, tuple(operations), draw(st.booleans()),
            draw(st.none() | st.sampled_from(filters)))


def press(kg, groups, measured, operations, with_count, condition):
    build, root, *_ = KGS[kg]
    session = FacetedAnalyticsSession(build())
    session.select_class(root)
    if condition is not None:
        path, comparator, value = condition
        if comparator == "=":
            session.select_value(path, value)
        else:
            session.select_range(path, comparator, value)
    for path, function in groups:
        session.group_by(path, derived=function)
    if measured is None:
        session.count_items()
    else:
        session.measure(measured, operations)
    session.with_count(with_count)
    return session


@given(button_states())
@settings(max_examples=60, deadline=None)
def test_one_answer_frame_whatever_the_engine(state):
    """The shape of an answer is a function of its HIFUN query: the four
    engines agree on the columns *and* the rows, the columns are the
    ones the query declares and the translation projects (Propositions
    1–2), no two share a name — so the answer reloads as n·k triples
    (§5.3.3), less the unbound cells."""
    session = press(*state)
    frames = [session.run(engine) for engine in ENGINES]
    for engine, frame in zip(ENGINES, frames):
        assert frame.columns == frames[0].columns, engine
        assert frame.rows == frames[0].rows, engine
        root = (session.state.intention.root_class
                if engine == "restrictions" else TEMP_CLASS)
        assert (list(frame.columns)
                == translate(frame.query, root_class=root).answer_columns
                == list(frame.query.answer_columns())), engine
    frame = frames[0]
    assert len(frame) > 0
    assert len(set(frame.columns)) == len(frame.columns)
    assert len(frame.columns) == (len(frame.grouping_columns)
                                  + len(frame.aggregate_columns)
                                  + (frame.count_column is not None))
    loaded = frame.to_graph()
    properties = set(map(frame.column_property, frame.columns))
    data = [s for s, p, _ in loaded.triples() if p in properties]
    unbound = sum(cell is None for row in frame.rows for cell in row)
    assert len(data) == len(frame) * len(frame.columns) - unbound
    assert len(loaded) == len(data) + len(frame) + len(frame.columns)
    assert set(data) == {APP.term(f"t{i + 1}") for i in range(len(frame))}


def test_an_ill_typed_measure_is_no_number_on_every_engine():
    """A Laptop priced ``"abc"^^xsd:integer``: Q4 (AVG, SUM and MAX of
    price by manufacturer) answers on every engine — the aggregates of
    that laptop's group are unbound, MAX falls back to the term order —
    and every engine answers the same frame."""
    graph = products_graph()
    laptop = min(graph.subjects(RDF.type, EX.Laptop))
    for price in list(graph.objects(laptop, EX.price)):
        graph.remove(laptop, EX.price, price)
    graph.add(laptop, EX.price, Literal("abc", XSD_INTEGER))
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    session.group_by((EX.manufacturer,))
    session.measure((EX.price,), ("AVG", "SUM", "MAX"))
    frames = [session.run(engine) for engine in ENGINES]
    for engine, frame in zip(ENGINES, frames):
        assert (frame.columns, frame.rows) == (frames[0].columns,
                                               frames[0].rows), engine
    maker = graph.value(laptop, EX.manufacturer)
    row, = [row for row in frames[0].rows if row[0] == maker]
    assert row[1:] == (None, None, Literal("abc", XSD_INTEGER))


@pytest.mark.parametrize("engine", ENGINES)
def test_column_names_are_the_querys_on_every_engine(engine):
    """The three states on which the engines named an answer's columns
    differently, pinned as literals."""
    origin = (EX.manufacturer, EX.origin)
    session = press(
        "products", [(origin, None), ((EX.releaseDate,), "YEAR")], (EX.price,),
        ("AVG", "SUM"), True, None)
    assert session.run(engine).columns == (
        "manufacturer_origin", "year_releaseDate", "avg_price", "sum_price",
        "count_items")
    session = press(
        "products", [((EX.manufacturer,), None)], None, (), True, None)
    counted = session.run(engine)
    assert counted.columns == ("manufacturer", "count_items", "count_items2")
    assert counted.column("count_items") == counted.column("count_items2")
    session = press(
        "products", [((EX.USBPorts,), None)], origin, ("COUNT",), False, None)
    assert session.run(engine).columns == ("USBPorts", "count_manufacturer_origin")


# ---------------------------------------------------------------------------
# Native ≡ endpoint: one session class, its counts from the index kernel or
# from the Tables 5.1/5.2 queries through a healthy endpoint
# ---------------------------------------------------------------------------
ENDPOINT_GRAPHS = {
    "products": products_graph,
    "synthetic": lambda: synthetic_graph(SyntheticConfig(laptops=12, seed=3)),
}


def _answer(session, engine):
    try:
        frame = session.run(engine)
    except AnalyticsStateError as exc:
        return str(exc)
    return frame.columns, frame.rows


def _assert_same_counts(native, remote):
    for expanded in (False, True):
        assert remote.class_markers(expanded) == native.class_markers(expanded)
    for include_inverse in (False, True):
        assert (remote.applicable_properties(include_inverse)
                == native.applicable_properties(include_inverse))
        facets = native.all_facets(include_inverse)
        assert remote.all_facets(include_inverse) == facets, include_inverse
        assert not remote.facet_engine.incidents
        for facet in facets:
            assert remote.facet(facet.path) == facet, facet.path
    # each listed facet expanded by each listed step, forward and
    # inverse, and by its own step reversed (from a literal value, an
    # inverse step has no source): a path counts the node one step
    # before its value
    steps = native.applicable_properties(include_inverse=True)
    for first in steps:
        back = PropertyRef(first.prop, inverse=not first.inverse)
        for step in steps + [back]:
            assert (remote.expand_path(first, step)
                    == native.expand_path(first, step)), (first, step)
    for engine in ("sparql", "restrictions"):
        assert _answer(remote, engine) == _answer(native, engine), engine


def _click(rng, native, sessions):
    """One seeded click among what the native session offers — a class,
    a value, a range, back or a pivot (inverse steps included) — taken
    in every one of ``sessions``."""
    actions = [("back",)] if len(native.history()) > 1 else []
    actions += [("class", marker.cls)
                for top in native.class_markers(expanded=True)
                for marker in top.flatten()]
    for facet in native.all_facets(include_inverse=True):
        actions.append(("pivot", facet.path))
        for marker in facet.values[:3]:
            actions.append(("value", facet.path, marker.value))
            if isinstance(marker.value, Literal) and marker.value.is_numeric():
                actions.append(("range", facet.path, marker.value))
    kind, *args = rng.choice(actions)
    for session in sessions:
        if kind == "back":
            session.back()
        elif kind == "class":
            session.select_class(*args)
        elif kind == "value":
            session.select_value(*args)
        elif kind == "range":
            session.select_range(args[0], ">=", args[1])
        else:
            session.pivot_to(*args)


@pytest.mark.parametrize("dataset", sorted(ENDPOINT_GRAPHS))
@pytest.mark.parametrize("seed", range(3))
def test_endpoint_counts_equal_native_counts(dataset, seed):
    """Over a healthy endpoint a session offers exactly the native one's
    markers, properties, listings, facets and one-step expansions —
    inverse ones included — and runs to the same answers, state after
    state."""
    native = FacetedAnalyticsSession(ENDPOINT_GRAPHS[dataset]())
    remote = FacetedAnalyticsSession(
        native.graph, closed=True,
        endpoint=lambda g: ResilientEndpoint(LocalEndpoint(g)))
    for session in (native, remote):
        session.group_by((EX.manufacturer,))
        session.count_items()
    rng = random.Random(seed)
    for _ in range(6):
        _assert_same_counts(native, remote)
        _click(rng, native, (native, remote))
        assert remote.state.ids == native.state.ids
    _assert_same_counts(native, remote)
    assert remote.facet_engine.incidents == []
    assert remote.cache_stats()["facets"].size == 0


@pytest.mark.parametrize("include_inverse, queries", [(False, 2), (True, 4)])
def test_an_endpoint_listing_is_two_count_queries_a_direction(
        include_inverse, queries):
    """Through an endpoint a listing is Table 5.2's grouped counts: the
    having-counts by ``?p`` and the value counts by ``?p ?v``, per
    direction — however many properties the state has."""
    remote = FacetedAnalyticsSession(
        products_graph(), endpoint=lambda g: ResilientEndpoint(LocalEndpoint(g)))
    for cls in (None, EX.Laptop):
        if cls is not None:
            remote.select_class(cls)
        before = len(remote.endpoint.history)
        listing = remote.all_facets(include_inverse)
        assert len(listing) > queries and not remote.facet_engine.incidents
        assert len(remote.endpoint.history) - before == queries


# ---------------------------------------------------------------------------
# The decided semantic forks (DESIGN.md, *Semantic forks*)
# ---------------------------------------------------------------------------
def _seeded(graph):
    """A ``results=`` session: six widgets, one item the graph never
    interned and two literals — which are no items (fork (b))."""
    seeds = [EX[f"item{i}"] for i in range(6)] + [
        EX.neverInterned, Literal.of("stray"), Literal.of(5)]
    session = FacetedAnalyticsSession(graph, results=seeds)
    session.count_items()
    return session


def _widgets(graph, groups, measured, operations, with_count=False):
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Widget)
    for path in groups:
        session.group_by(path)
    session.measure(measured, operations)
    session.with_count(with_count)
    return session


#: Per fork, a press that reaches it on a random graph.
FORKS = {
    "value order": lambda graph: _widgets(
        graph, [(EX.maker,)], (EX.price,), ("SAMPLE", "GROUP_CONCAT")),
    "literal members": _seeded,
    "outside the prerequisites": lambda graph: _widgets(
        graph, [(EX.maker,)], (EX.maker,), ("COUNT", "GROUP_CONCAT"), True),
}


@given(st.sampled_from(sorted(FORKS)), st.integers(0, 9))
@example("value order", 0)
@example("literal members", 0)
@example("outside the prerequisites", 0)
@settings(derandomize=not _FUZZING, deadline=None, max_examples=30)
def test_the_decided_forks_on_every_engine(fork, seed):
    """Whatever the fork, the engines that evaluate the translation —
    ``native``, ``sparql`` and ``restrictions`` (which a seeded session
    has no form for) — answer one frame, and the row reference answers
    it too wherever ``check_hifun`` finds the press inside HIFUN's
    prerequisites."""
    session = FORKS[fork](random_graph(seed))
    answers = {engine: _answer(session, engine) for engine in ENGINES}
    assert answers["sparql"] == answers["native"]
    if fork == "literal members":
        assert isinstance(answers["restrictions"], str)
        assert answers["native"][1] == [(Literal.of(7),)]
    else:
        assert answers["restrictions"] == answers["native"]
    report = check_hifun(session.hifun_query(), infer_schema(session.graph),
                         None, session.graph)
    if not OUTSIDE_PREREQUISITES & set(report.codes()):
        assert answers["row"] == answers["native"]


def test_outside_the_prerequisites_the_translation_answers():
    """Three presses outside §4.1, each flagged H005 or H006: the row
    reference answers otherwise, every other engine answers the
    translation's frame, pinned here."""
    graph = Graph()
    for item, kind, makers, prices in (
            (EX.item1, EX.kind0, (EX.m1, EX.m2), (10, 20)),
            (EX.item2, EX.kind0, (EX.m1,), (30,))):
        graph.add(item, RDF.type, EX.Widget)
        graph.add(item, EX.kind, kind)
        for maker in makers:
            graph.add(item, EX.maker, maker)
        for price in prices:
            graph.add(item, EX.price, Literal.of(price))

    def press(groups, measured, operations, with_count=False, derived=None):
        session = _widgets(graph, groups, measured, operations, with_count)
        if derived is not None:
            session.clear_analytics()
            session.derive(groups[0], derived)
            session.measure(measured, operations)
        return session

    one = Literal.of
    cases = (
        # the maker path both grouped and measured: Algorithm 2 shares it
        (press([(EX.maker,)], (EX.maker,), "COUNT"), "H005",
         [(EX.m1, one(2)), (EX.m2, one(1))],
         [(EX.m1, one(3)), (EX.m2, one(2))]),
        # with_count over a multi-valued measure counts solutions
        (press([(EX.kind,)], (EX.price,), "SUM", with_count=True), "H005",
         [(EX.kind0, one(60), one(3))],
         [(EX.kind0, one(60), one(2))]),
        # YEAR of an IRI: the translation keeps the items, unbound
        (press([(EX.kind,)], (EX.price,), "SUM", derived="YEAR"), "H006",
         [(None, one(60))],
         []),
    )
    for session, code, translated, row in cases:
        report = check_hifun(session.hifun_query(), infer_schema(graph),
                             None, graph)
        assert report.has(code), report.codes()
        for engine in ("native", "sparql", "restrictions"):
            assert session.run(engine).rows == translated, engine
        assert session.run("row").rows == row
