"""The SPARQL evaluator's bindings: ids from the block matcher to the
projection.

Inside :mod:`repro.sparql.evaluator` a variable is bound to the store's
dictionary id for its term — an extension view's virtual ids included —
and a computed term the store does not know (BIND, VALUES, an
expression's result) to itself, encoded first so that equal bindings
are equal terms.  The property: over an
:class:`~repro.rdf.overlay.ExtensionView`, whose ``:temp`` class and
unseen members only the view knows, every query answers the rows it
answers over a copy of the store with the temp triples really added —
through BGPs, BIND, VALUES, OPTIONAL, MINUS, FILTER, GROUP BY and the
aggregates.  Tier-1 runs it derandomized; ``make fuzz`` runs it long.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.facets.sparql_backend import TEMP
from repro.rdf import dictionary
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX, RDF
from repro.rdf.overlay import ExtensionView
from repro.rdf.terms import Literal, XSD_DECIMAL, XSD_INTEGER, native_number
from repro.sparql import evaluate, evaluator, parse_query, query

#: Tier-1 runs the property derandomized at the default size; ``make
#: fuzz`` loads the ``fuzz`` profile (tests/conftest.py) for a long run
#: at a random seed.
_FUZZING = settings.get_current_profile_name() == "fuzz"

ILL_TYPED = Literal("abc", XSD_INTEGER)
_NODES = [EX.term(f"n{i}") for i in range(4)]
#: No two values are equal numbers of another datatype, so that MIN,
#: MAX and SAMPLE do not depend on the order solutions arrive in.
_VALUES = ([Literal.of(i) for i in range(4)]
           + [Literal("2.5", XSD_DECIMAL), Literal.of("x"), ILL_TYPED])
_UNSEEN = EX.neverInterned

_triples = st.lists(st.tuples(
    st.sampled_from(_NODES), st.sampled_from([EX.p, EX.q, EX.r]),
    st.sampled_from(_NODES + _VALUES)), max_size=16)
_members = st.sets(st.sampled_from(_NODES + [Literal.of(1), _UNSEEN]))

_ROOT = f"?x <{RDF.type.value}> <{TEMP.value}> . "


@st.composite
def _queries(draw):
    """A SELECT rooted at ``?x rdf:type :temp``, from optional parts.
    The root comes first, or after a group that binds ``?x``, so that
    the view's triples are read by scan and by subject alike."""
    first = draw(st.sampled_from(["?x ex:p ?v .", "?x ex:q ?v ."]))
    body = draw(st.sampled_from([_ROOT + first, f"{{ {first} }} {_ROOT}"]))
    body += draw(st.sampled_from([
        "", " BIND(?v + 1 AS ?w)", " BIND(?v + 0 AS ?w)",
        " BIND(STR(?v) AS ?w)", " BIND(?v AS ?w)"]))
    body += draw(st.sampled_from([
        "", ' VALUES ?v { 1 2 "x" 7 }', " VALUES ?w { 1 3 7 }"]))
    body += draw(st.sampled_from(["", " OPTIONAL { ?x ex:r ?y }"]))
    body += draw(st.sampled_from(["", " ?x ex:q ?y ."]))
    body += draw(st.sampled_from([
        "", " MINUS { ?x ex:q 1 }", " MINUS { ?x ex:r ?v }"]))
    body += draw(st.sampled_from([
        "", " FILTER(?v > 1)", " FILTER(BOUND(?y))", " FILTER(?w != 2)",
        " FILTER(isLiteral(?v))"]))
    group = draw(st.sampled_from([None, "x", "v", "w"]))
    aggregates = draw(st.lists(st.sampled_from([
        "COUNT(?v)", "COUNT(DISTINCT ?w)", "COUNT(*)", "SUM(?v)", "AVG(?v)",
        "MIN(?w)", "MAX(?v)", "SAMPLE(?g)"]), max_size=3, unique=True))
    if group is None:  # SAMPLE reads the group key: all members share it
        aggregates = [agg for agg in aggregates if agg != "SAMPLE(?g)"]
        if not aggregates:
            return f"SELECT ?x ?v ?w ?y {{ {body} }}"
    projections = [f"?{group}"] if group else []
    projections += [f"({agg.replace('?g', f'?{group}')} AS ?a{i})"
                    for i, agg in enumerate(aggregates)]
    grouping = f" GROUP BY ?{group}" if group else ""
    return f"SELECT {' '.join(projections)} {{ {body} }}{grouping}"


def _rows(store, text):
    return sorted(repr(sorted(row.items())) for row in query(store, text))


def _stores(triples, members):
    """The view over ``Graph(triples)`` — members the store knows go in
    as ids, the others as Terms — and the materialized copy."""
    graph = Graph(triples)
    known = {m for m in members if graph.encode_term(m) is not None}
    view = ExtensionView(graph, TEMP, members - known,
                         ids=graph.encode_terms(known))
    real = graph.copy()
    real.add_all((m, RDF.type, TEMP) for m in members
                 if not isinstance(m, Literal))
    return view, real


@settings(derandomize=not _FUZZING, deadline=None)
@given(triples=_triples, members=_members, text=_queries())
@example(  # a computed term joins with the equal stored term
    triples=[(EX.s, EX.r, Literal.of(1))], members=set(),
    text="SELECT ?w { ?s ex:r ?v BIND(?v + 0 AS ?w) ?s ex:r ?w }")
@example(  # an ill-typed literal is no number: the aggregate is unbound
    triples=[(EX.n0, EX.p, ILL_TYPED), (EX.n1, EX.p, Literal.of(2))],
    members={EX.n0, EX.n1},
    text=f"SELECT (AVG(?v) AS ?a) (SUM(?v) AS ?s) (MAX(?v) AS ?m) "
         f"(COUNT(?v) AS ?n) {{ {_ROOT} ?x ex:p ?v }}")
def test_view_answers_the_materialized_rows(triples, members, text):
    view, real = _stores(triples, members)
    assert _rows(view, text) == _rows(real, text)


def test_a_computed_term_joins_with_the_stored_one():
    graph = Graph([(EX.s, EX.r, Literal.of(1))])
    rows = query(graph, "SELECT ?w { ?s ex:r ?v BIND(?v + 0 AS ?w) "
                        "?s ex:r ?w }")
    assert [row["w"] for row in rows] == [Literal.of(1)]


def test_a_number_is_read_once_per_id_for_the_life_of_the_store(
        monkeypatch):
    """SUM/AVG/MIN/MAX read each id's number through the dictionary's
    memo: three distinct values parse three times over two aggregates,
    two views and two evaluations — a computed term every time."""
    parsed = []

    def counted(term):
        parsed.append(term)
        return native_number(term)
    monkeypatch.setattr(dictionary, "native_number", counted)  # the memo's
    monkeypatch.setattr(evaluator, "native_number", counted)  # computed terms
    graph = Graph([(EX.term(f"n{i}"), EX.p, Literal.of(i % 3))
                   for i in range(9)])
    text = (f"SELECT (SUM(?v) AS ?s) (MAX(?v) AS ?m) "
            f"{{ {_ROOT} ?x ex:p ?v }}")
    for _ in range(2):
        view = ExtensionView(graph, TEMP, graph.subjects(EX.p, None))
        row, = evaluate(parse_query(text), view)
        assert (row["s"], row["m"]) == (Literal.of(9), Literal.of(2))
    assert sorted(parsed) == [Literal.of(i) for i in range(3)]
    evaluate(parse_query("SELECT (SUM(?w) AS ?s) { ?x ex:p ?v "
                         "BIND(?v + 10 AS ?w) }"), graph)
    assert len(parsed) == 3 + 9


def test_an_ill_typed_literal_leaves_the_numeric_aggregates_unbound():
    view, _ = _stores([(EX.n0, EX.p, ILL_TYPED), (EX.n1, EX.p, Literal.of(2))],
                      {EX.n0, EX.n1})
    row, = query(view, f"SELECT (AVG(?v) AS ?a) (SUM(?v) AS ?s) "
                       f"(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(?v) AS ?n) "
                       f"{{ {_ROOT} ?x ex:p ?v }}")
    assert "a" not in row and "s" not in row
    # MIN/MAX fall back to the sort-key order over the terms themselves
    assert (row["lo"], row["hi"]) == (Literal.of(2), ILL_TYPED)
    assert row["n"] == Literal.of(2)


def test_a_partly_bound_variable_constrains_its_row():
    """After OPTIONAL, ``?y`` is bound in some solutions only: a later
    pattern must match it where it is bound, not overwrite it."""
    graph = Graph([(EX.a, EX.r, EX.o1), (EX.a, EX.q, EX.o2),
                   (EX.b, EX.q, EX.o3), (EX.a, EX.p, EX.v), (EX.b, EX.p, EX.v)])
    rows = query(graph, "SELECT ?x ?y { ?x ex:p ?v OPTIONAL { ?x ex:r ?y } "
                        "?x ex:q ?y }")
    assert [(row["x"], row["y"]) for row in rows] == [(EX.b, EX.o3)]
