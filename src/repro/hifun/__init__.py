"""HIFUN: the high-level functional analytics language (Chapters 2.5 & 4).

A HIFUN query is an ordered triple ``Q = (g, m, op)`` over an analysis
context: a *grouping function*, a *measuring function* and an *aggregate
operation*, each optionally restricted — the general form is
``q = (gE/rg, mE/rm, opE/ro)``.

This package provides:

* :mod:`repro.hifun.attributes` — the functional algebra: direct
  attributes (RDF properties), composition (``∘`` — property paths),
  pairing (``⊗`` — multi-attribute grouping) and derived attributes;
* :mod:`repro.hifun.query` — HIFUN queries and restrictions;
* :mod:`repro.hifun.translator` — the HIFUN → SPARQL translation of
  §4.2 (Algorithms 1–4);
* :mod:`repro.hifun.evaluator` — :func:`evaluate_hifun`, which
  evaluates the translation (Propositions 1–2 make its answer the
  query's), and the item-at-a-time three-step (group / measure /
  reduce) reference evaluator the translation is validated against;
* :mod:`repro.hifun.features` — the Feature Creation Operators FCO1–FCO9
  of Table 4.1, for data that violates the HIFUN prerequisites of
  §4.1.1 (which :func:`repro.analysis.check_hifun` reports as H005).

Quick example (the invoices query of §4.2.1)::

    from repro.hifun import Attribute, HifunQuery, translate
    takes_place_at = Attribute(EX.takesPlaceAt)
    in_quantity = Attribute(EX.inQuantity)
    q = HifunQuery(grouping=takes_place_at, measuring=in_quantity, operation="SUM")
    sparql_text = translate(q)
"""

from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Composition,
    Derived,
    Pairing,
    compose,
    pair,
)
from repro.hifun.query import HifunQuery, Restriction, ResultRestriction
from repro.hifun.translator import translate
from repro.hifun.evaluator import AnswerFunction, evaluate_hifun
from repro.hifun.features import (
    FeatureOperator,
    fco_value,
    fco_exists,
    fco_count,
    fco_values_as_features,
    fco_degree,
    fco_average_degree,
    fco_path_exists,
    fco_path_count,
    fco_path_max_freq,
    fco_path_aggregate,
    apply_feature,
)

__all__ = [
    "Attribute",
    "AttributeExpr",
    "Composition",
    "Derived",
    "Pairing",
    "compose",
    "pair",
    "HifunQuery",
    "Restriction",
    "ResultRestriction",
    "translate",
    "evaluate_hifun",
    "AnswerFunction",
    "FeatureOperator",
    "fco_value",
    "fco_exists",
    "fco_count",
    "fco_values_as_features",
    "fco_degree",
    "fco_average_degree",
    "fco_path_exists",
    "fco_path_count",
    "fco_path_max_freq",
    "fco_path_aggregate",
    "apply_feature",
]
