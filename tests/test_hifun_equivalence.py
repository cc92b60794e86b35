"""Property-based empirical validation of Proposition 2 (soundness).

For randomly generated HIFUN queries over randomly generated invoice
datasets, the SPARQL translation and the native three-step evaluator
must produce identical answers.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.hifun import (
    Attribute,
    HifunQuery,
    Restriction,
    ResultRestriction,
    compose,
    evaluate_hifun,
    pair,
    translate,
)
from repro.hifun.attributes import Derived
from repro.sparql import query as sparql
from tests.test_datasets_endpoint import make_invoices

takes = Attribute(EX.takesPlaceAt)
qty = Attribute(EX.inQuantity)
delivers = Attribute(EX.delivers)
brand = Attribute(EX.brand)
has_date = Attribute(EX.hasDate)

GROUPINGS = st.sampled_from(
    [
        None,
        takes,
        delivers,
        compose(brand, delivers),
        pair(takes, delivers),
        pair(takes, compose(brand, delivers)),
        Derived("MONTH", has_date),
        Derived("YEAR", has_date),
        pair(takes, Derived("MONTH", has_date)),
    ]
)
OPERATIONS = st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"])
GROUP_RESTRICTIONS = st.sampled_from(
    [
        (),
        (Restriction(takes, "=", EX.branch1),),
        (Restriction(delivers, "=", EX.prod2),),
        (Restriction(Derived("MONTH", has_date), "=", Literal.of(1)),),
        (Restriction(compose(brand, delivers), "=", EX.brand1),),
    ]
)
MEASURE_RESTRICTIONS = st.sampled_from(
    [
        (),
        (Restriction(qty, ">=", Literal.of(100)),),
        (Restriction(qty, "<", Literal.of(400)),),
    ]
)
HAVING = st.sampled_from([None, (">", 500), ("<=", 800)])


def translated_rows(graph, query):
    translation = translate(query, root_class=EX.Invoice)
    result = sparql(graph, translation.text)
    return sorted(
        tuple(row.get(c) for c in translation.answer_columns) for row in result
    ), translation


@settings(max_examples=60, deadline=None)
@given(
    grouping=GROUPINGS,
    operation=OPERATIONS,
    grouping_restrictions=GROUP_RESTRICTIONS,
    measuring_restrictions=MEASURE_RESTRICTIONS,
    having=HAVING,
    seed=st.integers(min_value=0, max_value=3),
)
def test_translation_matches_native_evaluation(
    grouping, operation, grouping_restrictions, measuring_restrictions,
    having, seed,
):
    graph = make_invoices(40, branches=4, products=6, brands=3, seed=seed)
    result_restrictions = ()
    if having is not None:
        comparator, threshold = having
        result_restrictions = (
            ResultRestriction(operation, comparator, Literal.of(threshold)),
        )
    query = HifunQuery(
        grouping=grouping,
        measuring=qty,
        operation=operation,
        grouping_restrictions=grouping_restrictions,
        measuring_restrictions=measuring_restrictions,
        result_restrictions=result_restrictions,
    )
    via_sparql, translation = translated_rows(graph, query)
    native = evaluate_hifun(graph, query, root_class=EX.Invoice)
    assert via_sparql == sorted(native.rows()), translation.text


@settings(max_examples=20, deadline=None)
@given(
    operations=st.lists(
        st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]),
        min_size=1, max_size=3, unique=True,
    ),
    seed=st.integers(min_value=0, max_value=3),
)
def test_multi_operation_equivalence(operations, seed):
    graph = make_invoices(30, branches=3, products=5, seed=seed)
    query = HifunQuery(takes, qty, tuple(operations), with_count=True)
    via_sparql, _ = translated_rows(graph, query)
    native = evaluate_hifun(graph, query, root_class=EX.Invoice)
    assert via_sparql == sorted(native.rows())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=6))
def test_identity_count_equivalence(seed):
    graph = make_invoices(25, branches=3, seed=seed)
    query = HifunQuery(pair(takes, delivers), None, "COUNT")
    via_sparql, _ = translated_rows(graph, query)
    native = evaluate_hifun(graph, query, root_class=EX.Invoice)
    assert via_sparql == sorted(native.rows())
