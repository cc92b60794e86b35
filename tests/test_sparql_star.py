"""Table 5.1's star evaluated a step at a time.

:meth:`repro.sparql.evaluator._Compiler.star` answers an aggregated
SELECT whose WHERE is a root ``?x rdf:type C`` plus steps ``?a p ?b``
(constant ``p``, ``?a`` reached, ``?b`` fresh) by expanding the star
over the whole frontier, one ``objects_column`` read a step, and
folding the columns.  The property: on every such shape it answers the
pipeline's rows *in the pipeline's order* — un-ORDERed groups and float
SUM/AVG included — over a flat store, an extension view, a 3-shard
store and a view of one.  A view keeps the star's columns
(``ExtensionView.column``): a second property draws a sequence of
stars on one view, each answered as on a fresh view, and a session's
press after a write reads the written value.  Tier-1 runs the
properties derandomized; ``make fuzz`` runs them long.  The guards
below pin what a path read costs — each distinct subject's row once —
and what a state's ten presses read: each column once.
"""

from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.datasets import SyntheticConfig, synthetic_graph
from repro.facets.analytics import FacetedAnalyticsSession
from repro.facets.sparql_backend import TEMP
from repro.hifun.attributes import Attribute, Derived
from repro.hifun.evaluator import evaluate_hifun
from repro.hifun.query import HifunQuery
from repro.hifun.translator import translate
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.overlay import ExtensionView
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import Literal, XSD_DATE
from repro.sparql import evaluate, evaluator, parse_query

_FUZZING = settings.get_current_profile_name() == "fuzz"

_NODES = [EX.term(f"n{i}") for i in range(5)]
_VALUES = _NODES[:3] + [Literal.of(i) for i in range(2)]
# Float sums depend on the order they are added in.
_MEASURES = [Literal.of(x) for x in (0.1, 0.2, 0.3, 1e16, 2)]
_DATES = [Literal("2020-05-01", XSD_DATE), Literal("2021-01-02", XSD_DATE),
          Literal.of("no date")]
_UNSEEN = EX.neverInterned

# Multi-valued steps, members missing a step, literal values (which a
# further step starts from and finds nothing), some nodes already typed.
_noise = st.one_of(
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q]),
              st.sampled_from(_VALUES)),
    st.tuples(st.sampled_from(_NODES), st.just(EX.m),
              st.sampled_from(_MEASURES)),
    st.tuples(st.sampled_from(_NODES), st.just(EX.d),
              st.sampled_from(_DATES)),
    st.tuples(st.sampled_from(_NODES), st.just(RDF.type),
              st.sampled_from([EX.C, TEMP])))
# What a step may give every node exactly one value under — a node for
# ``p`` and ``q``, so that a further step finds one too.
_FUNCTIONAL = {EX.p: _NODES, EX.q: _NODES, EX.m: _MEASURES, EX.d: _DATES}


@st.composite
def _triples(draw):
    """The noise above, beside steps that often are functional: every
    node one value, and no noise under that step half the time — so a
    star often keeps its columns past the root (one row a member)."""
    functional = draw(st.lists(st.sampled_from(list(_FUNCTIONAL)),
                               unique=True))
    triples = [(node, step, draw(st.sampled_from(_FUNCTIONAL[step])))
               for step in functional for node in _NODES]
    noise = draw(st.lists(_noise, min_size=max(0, 15 - len(triples)),
                          max_size=40 - len(triples)))
    if draw(st.booleans()):
        noise = [t for t in noise if t[1] not in functional]
    return triples + noise


# Members all nodes as often as not: a literal or never-seen member has
# no value under any step.
_members = st.one_of(
    st.sets(st.sampled_from(_NODES), min_size=2),
    st.sets(st.sampled_from(_NODES + [Literal.of(1), _UNSEEN]), min_size=2))
_AGGREGATES = ["SUM({})", "AVG({})", "MIN({})", "MAX({})", "COUNT({})",
               "COUNT(DISTINCT {})", "GROUP_CONCAT({})", "SAMPLE({})",
               "COUNT(*)"]


@st.composite
def _stars(draw):
    """An eligible shape: the root and up to three steps in any text
    order, grouped by variables and ``YEAR(?v)``, a few aggregates,
    HAVING, ORDER BY and LIMIT."""
    cls = draw(st.sampled_from([TEMP] * 4 + [EX.C, EX.D]))
    reached, body = ["?x"], [f"?x a <{cls.value}> ."]
    for n in range(draw(st.integers(0, 3))):
        step = draw(st.sampled_from([EX.p, EX.q] * 3 + [EX.m, EX.d] * 2
                                    + [EX.neverUsed]))
        subject = draw(st.sampled_from(["?x"] * 2 + reached))
        body.append(f"{subject} <{step.value}> ?v{n} .")
        reached.append(f"?v{n}")
    keys = draw(st.lists(st.sampled_from(reached), unique=True, min_size=1,
                         max_size=2))[:draw(st.sampled_from([2, 2, 0]))]
    year = draw(st.sampled_from([None] + reached))
    projections = keys + ([f"(YEAR({year}) AS ?y)"] if year else []) + [
        f"({aggregate.format(draw(st.sampled_from(reached)))} AS ?a{n})"
        for n, aggregate in enumerate(draw(st.lists(
            st.sampled_from(_AGGREGATES), min_size=1, max_size=3)))]
    text = (f"SELECT {' '.join(projections)} "
            f"WHERE {{ {' '.join(draw(st.permutations(body)))} }}")
    if keys or year:
        text += f" GROUP BY {' '.join(keys)}" + (f" YEAR({year})" if year
                                                 else "")
    text += draw(st.sampled_from(["", " HAVING (COUNT(*) > 1)"]))
    text += draw(st.sampled_from(["", " ORDER BY DESC(?a0)"]))
    return text + draw(st.sampled_from(["", " LIMIT 2"]))


def _store(kind, triples, members):
    """A store whose ``temp`` class holds ``members``: a view's, or
    typed in the store itself."""
    if "view" not in kind:
        triples = triples + [(m, RDF.type, TEMP) for m in members
                             if not isinstance(m, Literal)]
    graph = ShardedGraph(triples, shards=3) if "sharded" in kind \
        else Graph(triples)
    if "view" not in kind:
        return graph
    known = {m for m in members if graph.encode_term(m) is not None}
    return ExtensionView(graph, TEMP, members - known,
                         ids=graph.encode_terms(known))


def _rows(store, text, star):
    """The rows of ``text`` over ``store`` (the count rule off), with
    the star rule on or off, and did the rule answer?"""
    fired = []
    rule = evaluator._Compiler.star

    def spy(self, *args):
        found = rule(self, *args) if star else None
        fired.append(found is not None)
        return found
    with mock.patch.object(evaluator._Compiler, "counted",
                           lambda self, query, group: None), \
            mock.patch.object(evaluator._Compiler, "star", spy):
        rows = evaluate(parse_query(text), store)
    return [sorted(row.items()) for row in rows], any(fired)


@settings(derandomize=not _FUZZING, deadline=None)
@given(kind=st.sampled_from(["flat", "view", "sharded", "sharded view"]),
       triples=_triples(), members=_members, text=_stars())
@example(  # a multi-valued step, then a step from its shared objects
    kind="view", members={_NODES[0], _NODES[1], Literal.of(1), _UNSEEN},
    triples=[(_NODES[0], EX.p, _NODES[2]), (_NODES[0], EX.p, _NODES[3]),
             (_NODES[1], EX.p, _NODES[2]), (_NODES[2], EX.m, _MEASURES[0]),
             (_NODES[3], EX.m, _MEASURES[3]), (_NODES[2], EX.m, _MEASURES[1]),
             (_NODES[4], RDF.type, TEMP), (_NODES[4], EX.p, _NODES[3])],
    text=f"SELECT ?v0 (SUM(?v1) AS ?a0) (GROUP_CONCAT(?v1) AS ?a1) "
         f"WHERE {{ ?v0 ex:m ?v1 . ?x a <{TEMP.value}> . ?x ex:p ?v0 }} "
         f"GROUP BY ?v0")
@example(  # functional steps, one predicate at two depths: two columns
    kind="view", members={_NODES[0], _NODES[1]},
    triples=[(_NODES[0], EX.p, _NODES[2]), (_NODES[1], EX.p, _NODES[3]),
             (_NODES[2], EX.p, _NODES[4]), (_NODES[3], EX.p, _NODES[4])],
    text=f"SELECT ?v1 (COUNT(*) AS ?a0) WHERE {{ ?x a <{TEMP.value}> . "
         f"?x <{EX.p.value}> ?v0 . ?v0 <{EX.p.value}> ?v1 }} GROUP BY ?v1")
@example(kind="flat", members=set(), triples=[], text=(  # no temp at all
    f"SELECT (AVG(?v0) AS ?a0) WHERE {{ ?x a <{TEMP.value}> . ?x ex:m ?v0 }}"))
@example(kind="view", members={Literal.of(1)}, triples=[  # temp, no member
    (_NODES[0], EX.p, _NODES[1]), (_NODES[1], EX.m, _MEASURES[0])],
    text=f"SELECT ?v0 (SUM(?v1) AS ?a0) WHERE {{ ?x a <{TEMP.value}> . "
         f"?x ex:p ?v0 . ?v0 ex:m ?v1 }} GROUP BY ?v0")
def test_the_star_rule_answers_the_pipeline_rows(kind, triples, members,
                                                 text):
    store = _store(kind, triples, members)
    answer, fired = _rows(store, text, star=True)
    assert fired  # the shape is eligible
    assert answer == _rows(store, text, star=False)[0]


@settings(derandomize=not _FUZZING, deadline=None)
@given(kind=st.sampled_from(["view", "sharded view"]), triples=_triples(),
       members=_members, texts=st.lists(_stars(), min_size=2, max_size=6))
@example(  # one value a member: every column kept; two roots, one path
    kind="view", members={_NODES[0], _NODES[1]},
    triples=[(_NODES[0], EX.p, _NODES[2]), (_NODES[1], EX.p, _NODES[3]),
             (_NODES[2], EX.p, _NODES[4]), (_NODES[3], EX.p, _NODES[4]),
             (_NODES[2], RDF.type, EX.C), (_NODES[3], RDF.type, EX.C)],
    texts=[f"SELECT ?v0 (COUNT(*) AS ?a0) WHERE {{ ?x a <{cls.value}> . "
           f"?x <{EX.p.value}> ?v0 }} GROUP BY ?v0" for cls in (EX.C, TEMP)]
    + [f"SELECT ?v1 (COUNT(*) AS ?a0) WHERE {{ ?x a <{TEMP.value}> . "
       f"?x <{EX.p.value}> ?v0 . ?v0 <{EX.p.value}> ?v1 }} GROUP BY ?v1"])
def test_a_kept_column_answers_as_a_fresh_view(kind, triples, members,
                                               texts):
    """The stars pressed one after another on one view — each reading
    the columns the earlier ones kept — answer what each answers on a
    fresh view, in the same order."""
    view = _store(kind, triples, members)
    for text in texts:
        assert _rows(view, text, star=True) == _rows(
            _store(kind, triples, members), text, star=True)


_PRICE = (EX.price,)
_Q4 = ((((EX.manufacturer,), None),), "AVG")
_Q8 = ((((EX.manufacturer,), None), ((EX.USBPorts,), None)),
       ("AVG", "SUM", "MAX"))


def _press(session, shape):
    """The frame of one G/Σ press on the session's state."""
    session.clear_analytics()
    groups, operations = shape
    for path, derived in groups:
        session.group_by(path, derived)
    session.measure(_PRICE, operations)
    return session.run("native")


@pytest.mark.parametrize("write", ["add", "remove"])
def test_a_press_after_a_write_reads_the_written_price(write):
    """Q4 keeps the state's price column on its view; a write of a
    member's price makes Q8 on the same state answer a fresh session's
    frame, not one over the kept column."""
    graph = synthetic_graph(SyntheticConfig(
        laptops=60, companies=4, countries=3, continents=2,
        drives_per_laptop_pool=10, seed=3))
    session = FacetedAnalyticsSession(graph)
    session.select_class(EX.Laptop)
    _press(session, _Q4)
    member = min(session.extension, key=lambda t: t.sort_key())
    price, = session.graph.objects(member, EX.price)
    if write == "add":  # a second price
        session.graph.add(member, EX.price, Literal.of(price.to_python() + 1))
    else:
        session.graph.remove(member, EX.price, price)
    fresh = FacetedAnalyticsSession(session.graph)
    fresh.select_class(EX.Laptop)
    assert _press(session, _Q8).rows == _press(fresh, _Q8).rows


# -- the guard: a path step reads each distinct subject's row once ----------
_LAPTOPS, _COMPANIES = 16_000, 100


@pytest.fixture(scope="module")
def laptops():
    """The benchmark's graph and the ids of its 16 000-member Laptop
    class, the ``temp`` class of the views below."""
    graph = synthetic_graph(SyntheticConfig(
        laptops=_LAPTOPS, companies=_COMPANIES, countries=30, continents=5,
        drives_per_laptop_pool=1000, seed=11))
    members = graph.subjects_ids(*map(graph.encode_term, (RDF.type,
                                                          EX.Laptop)))
    return graph, members


def _q7_reads(graph, members):
    """Q7 (average price by the manufacturer's origin's continent) on a
    fresh view of ``members`` (a view keeps the columns it read): the
    subjects each ``objects_column`` read hands in, per predicate."""
    view = ExtensionView(graph, TEMP, ids=members)
    path = (Attribute(EX.manufacturer) >> Attribute(EX.origin)
            >> Attribute(EX.locatedAt))
    text = translate(HifunQuery(path, Attribute(EX.price), "AVG"),
                     root_class=TEMP).text
    reads, twice = Counter(), []
    read = graph.objects_column

    def spy(subjects, pi):
        reads[graph.decode_id(pi)] += len(subjects)
        twice.append(len(set(subjects)) < len(subjects))
        return read(subjects, pi)
    with mock.patch.object(graph, "objects_column", spy):
        assert len(evaluate(parse_query(text), view)) == 5
    return reads, any(twice)


def test_q7_reads_each_company_row_once(laptops):
    graph, _ = laptops
    countries = set(graph.objects(None, EX.origin))
    reads, twice = _q7_reads(*laptops)
    assert not twice
    assert reads == {EX.manufacturer: _LAPTOPS, EX.price: _LAPTOPS,
                     EX.origin: _COMPANIES, EX.locatedAt: len(countries)}


def test_a_per_row_read_fails_the_guard(laptops):
    """The planted defect: a step reads its frontier column as it is,
    one row per solution, so each company's row is read once per
    laptop."""
    per_row = mock.patch.object(
        evaluator, "_objects_of",
        lambda store, subjects, pi, unique: store.objects_column(subjects,
                                                                 pi))
    with per_row:
        reads, twice = _q7_reads(*laptops)
    assert twice and reads[EX.origin] == _LAPTOPS


# -- the guard: a state's presses read each column once ----------------------
def _shapes():
    """The analytics benchmark's ten G/Σ presses on one state (Q1–Q10,
    Q5's and Q10's refinements left out) as HIFUN queries."""
    by, price = Attribute(EX.manufacturer), Attribute(EX.price)
    country = by >> Attribute(EX.origin)
    continent = country >> Attribute(EX.locatedAt)
    return [HifunQuery(None, None), HifunQuery(None, price, "AVG"),
            HifunQuery(by, None), HifunQuery(by, price, "AVG"),
            HifunQuery(by, price, "AVG"), HifunQuery(country, price, "AVG"),
            HifunQuery(continent, price, "AVG"),
            HifunQuery(by & Attribute(EX.USBPorts), price,
                       ("AVG", "SUM", "MAX")),
            HifunQuery(continent, price, ("AVG", "MIN")),
            HifunQuery(country & Derived("YEAR", Attribute(EX.releaseDate)),
                       price, "AVG")]


def _state_reads(graph, members):
    """The ten presses on one view of ``members``, as ``run("native")``
    evaluates them: the subjects each ``objects_column`` read hands in,
    per predicate."""
    view, reads = ExtensionView(graph, TEMP, ids=members), Counter()
    read = graph.objects_column

    def spy(subjects, pi):
        reads[graph.decode_id(pi)] += len(subjects)
        return read(subjects, pi)
    with mock.patch.object(graph, "objects_column", spy):
        for query in _shapes():
            evaluate_hifun(view, query, root_class=TEMP)
    return reads


def test_a_states_presses_read_each_column_once(laptops):
    reads = _state_reads(*laptops)
    assert reads[EX.manufacturer] == reads[EX.price] == _LAPTOPS


def test_a_view_that_keeps_nothing_fails_the_column_guard(laptops):
    """The planted defect: a view reads every column anew, so each
    press that reads a column reads all its members again."""
    with mock.patch.object(ExtensionView, "column",
                           lambda self, path, read: read()):
        reads = _state_reads(*laptops)
    assert reads[EX.manufacturer] == 7 * _LAPTOPS
    assert reads[EX.price] == 8 * _LAPTOPS
