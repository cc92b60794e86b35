"""Translation consistency check (codes ``C001``–``C002``).

Propositions 1–2 of the paper state that a well-formed HIFUN query has a
well-formed SPARQL translation whose answer columns are exactly the
grouping aliases plus one column per aggregate.  :func:`check_translation`
is the *executable shadow* of that claim: it runs the HIFUN checker and
the SPARQL linter on both sides of :func:`~repro.hifun.translator.translate`
and reports when they disagree:

==========  =========  ========================================================
Code        Severity   Defect class
==========  =========  ========================================================
``C001``    error      the HIFUN checker accepts the query but its
                       translation fails to parse or fails the SPARQL lint
``C002``    error      the answer columns the HIFUN query declares
                       (``HifunQuery.answer_columns()``) do not match the
                       SELECT projection of the generated text
==========  =========  ========================================================

The returned report merges the HIFUN diagnostics, the SPARQL diagnostics
(prefixed into context via their own codes) and any ``C0xx`` findings, so
``report.clean`` means "both layers agree the query is fine".
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.hifun.query import HifunQuery
from repro.hifun.translator import translate
from repro.sparql import ast
from repro.sparql.errors import SparqlParseError
from repro.sparql.parser import parse_query
from repro.analysis.diagnostics import AnalysisReport, _Collector
from repro.analysis.hifun_checker import check_hifun
from repro.analysis.schema import SchemaInfo, infer_schema
from repro.analysis.sparql_lint import lint_sparql


def check_translation(
    query: HifunQuery,
    root_class: Optional[IRI] = None,
    graph: Optional[Graph] = None,
    schema: Optional[SchemaInfo] = None,
    prefixes: Optional[Dict[str, str]] = None,
) -> AnalysisReport:
    """Check a HIFUN query *and* its SPARQL translation for agreement.

    Without ``graph``/``schema`` only the structural (schema-free) side
    runs: the translation must parse, lint clean, and project exactly the
    declared answer columns.
    """
    if schema is None and graph is not None:
        schema = infer_schema(graph)
    if schema is not None:
        hifun_report = check_hifun(query, schema, root_class, graph)
    else:
        hifun_report = AnalysisReport()

    out = _Collector()
    translation = translate(query, root_class=root_class, prefixes=prefixes)

    try:
        parsed = parse_query(translation.text)
    except SparqlParseError as exc:
        out.error(
            "C001",
            "the translation of a "
            + ("HIFUN-clean " if hifun_report.ok else "")
            + f"query does not parse: {exc}",
            path="translation",
            line=exc.line,
            column=exc.column,
        )
        return hifun_report.merged(out.report())

    sparql_report = lint_sparql(translation.text)
    if hifun_report.ok and not sparql_report.ok:
        codes = ", ".join(sorted({d.code for d in sparql_report.errors}))
        out.error(
            "C001",
            "the HIFUN checker accepts this query, but its translation "
            f"fails the SPARQL lint ({codes}) — Propositions 1-2 are "
            "violated for this input",
            path="translation",
        )

    if isinstance(parsed, ast.SelectQuery) and not parsed.is_star:
        projected = [projection.var.name for projection in parsed.projections]
        declared = list(query.answer_columns())
        if projected != declared:
            out.error(
                "C002",
                f"the query declares answer columns {declared} but the "
                f"SELECT clause of its translation projects {projected}",
                path="translation",
            )

    return hifun_report.merged(sparql_report).merged(out.report())
