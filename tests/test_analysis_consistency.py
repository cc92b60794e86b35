"""Translation consistency (C001/C002) and the paper-example suites.

Propositions 1–2 as executable claims: every worked example of §4.2 and
every §5.1 session query must pass the HIFUN checker, translate to SPARQL
that lints clean, and project exactly its declared answer columns.
"""

import datetime
import importlib.util
from pathlib import Path

import pytest

from repro.analysis import check_translation
from repro.analysis.consistency import check_translation as _check
from repro.datasets import invoices_graph, products_graph
from repro.facets import FacetedAnalyticsSession
from repro.hifun import Attribute, HifunQuery
from repro.hifun.translator import Translation
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal


def _load_bench(name):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- positive: agreement on real queries ---------------------------------
def test_good_query_is_consistent():
    report = check_translation(
        HifunQuery(Attribute(EX.manufacturer), Attribute(EX.price), "AVG"),
        root_class=EX.Laptop,
        graph=products_graph(),
    )
    assert report.clean, report.render()


def test_schema_free_mode_checks_structure_only():
    # No graph, no schema: only the SPARQL side runs — a query over
    # made-up properties must still be structurally consistent.
    report = check_translation(
        HifunQuery(Attribute(EX.notInAnyGraph), None, "COUNT")
    )
    assert report.ok, report.render()


def test_translation_examples_suite_is_clean():
    """Every §4.2 worked translation (8 queries) is diagnostics-free."""
    module = _load_bench("bench_translation_examples")
    graph = invoices_graph()
    for name, query in module.EXAMPLES:
        report = check_translation(query, root_class=EX.Invoice, graph=graph)
        assert report.clean, f"{name}: {report.render()}"


SECTION_5_1_SESSIONS = ("example_1", "example_2", "example_3", "example_4")


def section_5_1_session(which):
    """One of the §5.1 interactive walkthroughs, up to its G/Σ presses."""
    s = FacetedAnalyticsSession(products_graph())
    s.select_class(EX.Laptop)
    if which in ("example_1", "example_2", "example_3"):
        s.select_range(
            (EX.releaseDate,), ">=", Literal.of(datetime.date(2021, 1, 1))
        )
        s.select_values((EX.hardDrive,), [EX.SSD1, EX.SSD2])
    if which == "example_1":
        s.select_value((EX.manufacturer, EX.origin), EX.US)
        s.select_value((EX.USBPorts,), Literal.of(2))
        s.measure((EX.price,), "AVG")
    elif which == "example_2":
        s.select_value((EX.USBPorts,), Literal.of(2))
        s.group_by((EX.manufacturer, EX.origin))
        s.count_items()
    elif which == "example_3":
        s.select_range((EX.USBPorts,), ">=", Literal.of(2))
        s.group_by((EX.manufacturer, EX.origin))
        s.count_items()
    else:
        s.group_by((EX.manufacturer,))
        s.group_by((EX.releaseDate,), derived="YEAR")
        s.measure((EX.price,), "AVG")
    return s


@pytest.mark.parametrize("which", SECTION_5_1_SESSIONS)
def test_section_5_1_examples_are_clean(which):
    """The §5.1 interactive walkthroughs, analyzed before they run."""
    s = section_5_1_session(which)
    report = s.analyze_query()
    assert report.clean, f"{which}: {report.render()}"
    assert s.run() is not None, "the analyzed session must still execute"


# -- negatives: forcing the layers to disagree ---------------------------
def test_c001_translation_that_does_not_parse(monkeypatch):
    monkeypatch.setattr(
        "repro.analysis.consistency.translate",
        lambda query, root_class=None, prefixes=None: Translation(
            text="SELECT ?x WHERE {",
            group_exprs=[], group_aliases=[],
            aggregate_aliases=[("COUNT", "x")],
        ),
    )
    report = _check(HifunQuery(None, None, "COUNT"))
    assert "C001" in report.codes(), report.render()
    diag = next(d for d in report.errors if d.code == "C001")
    assert diag.line >= 1, "parse-level C001 must carry a position"


def test_c001_translation_that_fails_the_lint(monkeypatch):
    # Parses fine, but projects a variable WHERE never binds (S002).
    monkeypatch.setattr(
        "repro.analysis.consistency.translate",
        lambda query, root_class=None, prefixes=None: Translation(
            text="SELECT ?ghost WHERE { ?s <urn:p> ?o }",
            group_exprs=["?ghost"], group_aliases=["ghost"],
            aggregate_aliases=[],
        ),
    )
    report = _check(HifunQuery(None, None, "COUNT"))
    assert "C001" in report.codes(), report.render()
    assert "S002" in report.codes()


def test_c002_answer_column_mismatch(monkeypatch):
    # Lint-clean text whose projection disagrees with the declared
    # answer columns.
    monkeypatch.setattr(
        "repro.analysis.consistency.translate",
        lambda query, root_class=None, prefixes=None: Translation(
            text="SELECT ?s ?o WHERE { ?s <urn:p> ?o }",
            group_exprs=["?s"], group_aliases=["subject"],
            aggregate_aliases=[],
        ),
    )
    report = _check(HifunQuery(None, None, "COUNT"))
    assert "C002" in report.codes(), report.render()


def test_hifun_errors_suppress_c001():
    # When the HIFUN side already rejects the query, a SPARQL-side
    # failure is not a Propositions-1-2 violation.
    report = check_translation(
        HifunQuery(Attribute(EX.noSuchProp), Attribute(EX.price), "AVG"),
        root_class=EX.Laptop,
        graph=products_graph(),
    )
    assert "H002" in report.codes()
    assert "C001" not in report.codes(), report.render()
