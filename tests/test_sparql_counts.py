"""Table 5.2's grouped count answered off the POS rows.

:meth:`repro.sparql.evaluator._Compiler.counted` answers a SELECT whose
WHERE is ``?x rdf:type C`` plus at most one step ``?x p ?v``, grouped by
nothing or ``?v``, with ``COUNT(*)``, ``COUNT(?x)`` and ``COUNT(DISTINCT
?x)`` aggregates, from one ``facet_counts`` call instead of the push
pipeline.  The property: on every such shape it answers the pipeline's
rows — over a flat store, an extension view (members the base already
types, members it never saw, literals, no member at all) and a 3-shard
store.  Tier-1 runs it derandomized; ``make fuzz`` runs it long.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.facets.sparql_backend import TEMP
from repro.hifun.attributes import Attribute
from repro.hifun.query import HifunQuery
from repro.hifun.translator import translate
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.overlay import ExtensionView
from repro.rdf.sharding import ShardedGraph
from repro.rdf.terms import Literal
from repro.sparql import evaluate, evaluator, parse_query

_FUZZING = settings.get_current_profile_name() == "fuzz"

_NODES = [EX.term(f"n{i}") for i in range(5)]
_VALUES = _NODES[:2] + [Literal.of(i) for i in range(3)]
_UNSEEN = EX.neverInterned

# Multi-valued ex:p and ex:q; some nodes already typed :temp in the base.
_triples = st.lists(st.one_of(
    st.tuples(st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q]),
              st.sampled_from(_VALUES)),
    st.tuples(st.sampled_from(_NODES), st.just(RDF.type),
              st.sampled_from([EX.C, TEMP]))), max_size=20)
_members = st.sets(st.sampled_from(_NODES + [Literal.of(1), _UNSEEN]))


@st.composite
def _counts(draw):
    """An eligible shape: the root, at most one step, in either order,
    grouped or not, with a few COUNTs, HAVING, ORDER BY and LIMIT."""
    cls = draw(st.sampled_from([TEMP, EX.C, EX.D]))
    root = f"?x a <{cls.value}> ."
    step = draw(st.sampled_from([None, EX.p, EX.q, EX.neverUsed]))
    body = [root] + ([f"?x <{step.value}> ?v ."] if step else [])
    if draw(st.booleans()):
        body.reverse()
    keyed = step is not None and draw(st.booleans())
    counts = draw(st.lists(st.sampled_from(
        ["COUNT(*)", "COUNT(?x)", "COUNT(DISTINCT ?x)"]),
        min_size=0 if keyed else 1, max_size=3))
    projections = (["?v"] if keyed else []) + [
        f"({c} AS ?n{i})" for i, c in enumerate(counts)]
    text = f"SELECT {' '.join(projections)} WHERE {{ {' '.join(body)} }}"
    text += " GROUP BY ?v" if keyed else ""
    text += draw(st.sampled_from(["", " HAVING (COUNT(*) > 1)"]))
    text += draw(st.sampled_from(["", " ORDER BY DESC(COUNT(*)) ?v"]))
    return text + draw(st.sampled_from(["", " LIMIT 2"]))


def _store(kind, triples, members):
    graph = ShardedGraph(triples, shards=3) if "sharded" in kind \
        else Graph(triples)
    if "view" not in kind:
        return graph
    known = {m for m in members if graph.encode_term(m) is not None}
    return ExtensionView(graph, TEMP, members - known,
                         ids=graph.encode_terms(known))


def _answer(store, text):
    """The rows of ``text`` over ``store``, and did the rule answer?"""
    fired = []
    counted = evaluator._Compiler.counted

    def spy(self, query, group):
        found = counted(self, query, group)
        fired.append(found is not None)
        return found
    with mock.patch.object(evaluator._Compiler, "counted", spy):
        rows = evaluate(parse_query(text), store)
    return [sorted(row.items()) for row in rows], any(fired)


def _pipeline(store, text):
    """The rows with the rule switched off."""
    with mock.patch.object(evaluator._Compiler, "counted",
                           lambda self, query, group: None):
        return [sorted(row.items())
                for row in evaluate(parse_query(text), store)]


@settings(derandomize=not _FUZZING, deadline=None)
@given(kind=st.sampled_from(["flat", "view", "sharded", "sharded view"]),
       triples=_triples, members=_members, text=_counts())
@example(  # two values of one member: two solutions, one distinct ?x
    kind="view", members={_NODES[0], Literal.of(1), _UNSEEN},
    triples=[(_NODES[0], EX.p, _VALUES[2]), (_NODES[0], EX.p, _VALUES[3]),
             (_NODES[1], RDF.type, TEMP), (_NODES[1], EX.p, _VALUES[2])],
    text=f"SELECT (COUNT(*) AS ?n0) (COUNT(DISTINCT ?x) AS ?n1) "
         f"WHERE {{ ?x a <{TEMP.value}> . ?x ex:p ?v }}")
def test_the_count_rule_answers_the_pipeline_rows(kind, triples, members,
                                                  text):
    store = _store(kind, triples, members)
    answer, fired = _answer(store, text)
    assert fired  # the shape is eligible
    expected = _pipeline(store, text)
    if "ORDER BY" not in text:  # un-ORDERed groups come in any order
        answer, expected = sorted(map(repr, answer)), sorted(map(repr, expected))
        if "LIMIT" in text:  # ... and a LIMIT keeps any of them
            answer, expected = len(answer), len(expected)
    assert answer == expected


def test_every_other_shape_runs_the_pipeline():
    graph = Graph([(EX.a, RDF.type, EX.C), (EX.a, EX.p, EX.b),
                   (EX.b, EX.q, Literal.of(1))])
    root = "?x a ex:C ."
    assert _answer(graph, f"SELECT ?v (COUNT(?x) AS ?n) "
                          f"{{ {root} ?x ex:p ?v }} GROUP BY ?v")[1]
    for text in [
        # two steps: SPARQL counts walks, the kernel nodes
        f"SELECT ?w (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v . ?v ex:q ?w }}"
        " GROUP BY ?w",
        # a variable predicate (the listing's shape)
        f"SELECT ?v (COUNT(*) AS ?n) {{ {root} ?x ?p ?v }} GROUP BY ?v",
        f"SELECT (COUNT(?v) AS ?n) {{ {root} ?x ex:p ?v }}",
        f"SELECT (COUNT(DISTINCT *) AS ?n) {{ {root} }}",
        f"SELECT (SUM(?v) AS ?n) {{ {root} ?x ex:p ?v }}",
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v FILTER(?v != 1) }}",
        f"SELECT ?x (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v }} GROUP BY ?x",
        f"SELECT ?x (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v }} GROUP BY ?v",
        f"SELECT (COUNT(*) AS ?n) {{ ?x a ?c }}",
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?x a ?v }}",
        f"SELECT ?x {{ {root} ?x ex:p ?v }}",
    ]:
        assert not _answer(graph, text)[1], text
    # ... and the star rule refuses what is no star of constant steps
    assert _starred(graph, f"SELECT (SUM(?w) AS ?n) "
                           f"{{ {root} ?x ex:p ?v . ?v ex:q ?w }}")
    for text in [
        f"SELECT (SUM(?v) AS ?n) {{ {root} ?x ex:p ?v FILTER(?v != 1) }}",
        f"SELECT (SUM(?v) AS ?n) {{ {root} OPTIONAL {{ ?x ex:p ?v }} }}",
        # a variable predicate
        f"SELECT ?v (SUM(?w) AS ?n) {{ {root} ?x ?p ?v . ?v ex:q ?w }}"
        " GROUP BY ?v",
        # a step whose object is already bound, and a cycle
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v . ?x ex:q ?v }}",
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v . ?v ex:q ?x }}",
        # a constant object, a step from no reached node, a typed step
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?x ex:p ex:b }}",
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?y ex:q ?w }}",
        f"SELECT (COUNT(*) AS ?n) {{ {root} ?x ex:p ?v . ?v a ?c }}",
        f"SELECT (COUNT(*) AS ?n) {{ ?x a ?c . ?x ex:p ?v }}",
    ]:
        assert not _answer(graph, text)[1], text
        assert not _starred(graph, text), text


def _starred(store, text):
    """Did the star rule answer ``text`` (the count rule off)?"""
    fired = []
    star = evaluator._Compiler.star

    def spy(self, *args):
        found = star(self, *args)
        fired.append(found is not None)
        return found
    with mock.patch.object(evaluator._Compiler, "counted",
                           lambda self, query, group: None), \
            mock.patch.object(evaluator._Compiler, "star", spy):
        evaluate(parse_query(text), store)
    return any(fired)


def test_q3_over_a_wide_extension_reads_no_member_row():
    """Q3 (GROUP BY manufacturer, COUNT) over 200 laptops: the groups
    come from the manufacturer POS rows, not one ``objects_ids`` call
    per member."""
    graph = Graph()
    for i in range(200):
        graph.add(EX.term(f"laptop{i}"), EX.manufacturer,
                  EX.term(f"company{i % 7}"))
    view = ExtensionView(graph, TEMP, graph.subjects(EX.manufacturer, None))
    text = translate(HifunQuery(Attribute(EX.manufacturer), None, "COUNT"),
                     root_class=TEMP).text
    calls = []
    read = graph.objects_ids
    graph.objects_ids = lambda si, pi: calls.append(si) or read(si, pi)
    rows = evaluate(parse_query(text), view)
    assert calls == []
    assert sorted(row["count_items"].to_python() for row in rows) \
        == [28] * 3 + [29] * 4
