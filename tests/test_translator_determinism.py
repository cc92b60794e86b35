"""translate() must be byte-identical across runs (satellite: no dict-order
leaks into alias or variable numbering) — and every generator of path
chains byte-identical to its pinned text."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.facets.intentions import (
    Intention,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
)
from repro.facets.model import PropertyRef
from repro.facets.sparql_backend import SparqlFacetEngine
from repro.hifun import Attribute, HifunQuery, Restriction, pair, translate
from repro.hifun.attributes import compose_path
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal

_QUERY_SRC = """
from repro.hifun import (Attribute, HifunQuery, Restriction, compose,
                         pair, translate)
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal

query = HifunQuery(
    pair(compose(Attribute(EX.origin), Attribute(EX.manufacturer)),
         Attribute(EX.USBPorts)),
    Attribute(EX.price),
    ("AVG", "SUM"),
    measuring_restrictions=(Restriction(Attribute(EX.price), ">=",
                                        Literal.of(100)),),
    with_count=True,
)
t = translate(query, root_class=EX.Laptop,
              prefixes={"zzz": "urn:z#", "aaa": "urn:a#", "mmm": "urn:m#"})
print(t.text)
print("|".join(t.answer_columns))
"""


def _run_in_subprocess(hashseed: str) -> str:
    src_dir = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _QUERY_SRC],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_dir), "PYTHONHASHSEED": hashseed},
        check=True,
    )
    return result.stdout


def test_translation_identical_across_hash_seeds():
    outputs = {_run_in_subprocess(seed) for seed in ("0", "42", "12345")}
    assert len(outputs) == 1, "translate() output depends on hash order"


def test_prefixes_emitted_sorted_regardless_of_insertion_order():
    query = HifunQuery(Attribute(EX.manufacturer), Attribute(EX.price), "AVG")
    forward = translate(
        query, prefixes={"b": "urn:b#", "a": "urn:a#", "c": "urn:c#"}
    )
    backward = translate(
        query, prefixes={"c": "urn:c#", "a": "urn:a#", "b": "urn:b#"}
    )
    assert forward.text == backward.text
    lines = forward.text.splitlines()[:3]
    assert lines == [
        "PREFIX a: <urn:a#>",
        "PREFIX b: <urn:b#>",
        "PREFIX c: <urn:c#>",
    ]


def test_repeated_translation_is_stable_in_process():
    query = HifunQuery(
        pair(Attribute(EX.manufacturer), Attribute(EX.USBPorts)),
        Attribute(EX.price),
        "AVG",
        grouping_restrictions=(
            Restriction(Attribute(EX.manufacturer), "=", EX.DELL),
        ),
    )
    first = translate(query, root_class=EX.Laptop)
    for _ in range(5):
        again = translate(query, root_class=EX.Laptop)
        assert again.text == first.text
        assert again.answer_columns == first.answer_columns


# ---------------------------------------------------------------------------
# Golden texts: every path-walking generator shares one emitter
# (``path_patterns``), each with its own variable naming.  The strings
# below were taken from the generators as they were before they shared
# it, on a forward / inverse / forward path.
# ---------------------------------------------------------------------------
_PATH = (
    PropertyRef(EX.manufacturer),
    PropertyRef(EX.founder, inverse=True),
    PropertyRef(EX.born),
)
_LAPTOPS = Intention(root_class=EX.Laptop)

_GOLDEN = {
    "translate: pairing over a composition, URI path restriction": (
        lambda: translate(
            HifunQuery(
                pair(Attribute(EX.delivers) >> Attribute(EX.brand),
                     Attribute(EX.takesPlaceAt)),
                Attribute(EX.inQuantity),
                "SUM",
                grouping_restrictions=(
                    Restriction(
                        Attribute(EX.takesPlaceAt) >> Attribute(EX.locatedIn),
                        "=", EX.Athens),
                ),
            ),
            root_class=EX.Invoice,
        ).text,
        "SELECT (?x3 AS ?delivers_brand) (?x4 AS ?takesPlaceAt) (SUM(?x5) AS ?sum_inQuantity)\n"
        "WHERE {\n"
        "  ?x1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/example#Invoice> .\n"
        "  ?x1 <http://www.ics.forth.gr/example#delivers> ?x2 .\n"
        "  ?x2 <http://www.ics.forth.gr/example#brand> ?x3 .\n"
        "  ?x1 <http://www.ics.forth.gr/example#takesPlaceAt> ?x4 .\n"
        "  ?x1 <http://www.ics.forth.gr/example#inQuantity> ?x5 .\n"
        "  ?x1 <http://www.ics.forth.gr/example#takesPlaceAt> ?x6 .\n"
        "  ?x6 <http://www.ics.forth.gr/example#locatedIn> <http://www.ics.forth.gr/example#Athens> .\n"
        "}\n"
        "GROUP BY ?x3 ?x4",
    ),
    "translate: inverse-first composition": (
        lambda: translate(
            HifunQuery(
                Attribute(EX.delivers, inverse=True) >> Attribute(EX.takesPlaceAt),
                None, "COUNT"),
            root_class=EX.Product,
        ).text,
        "SELECT (?x3 AS ?delivers_takesPlaceAt) (COUNT(?x1) AS ?count_items)\n"
        "WHERE {\n"
        "  ?x1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/example#Product> .\n"
        "  ?x2 <http://www.ics.forth.gr/example#delivers> ?x1 .\n"
        "  ?x2 <http://www.ics.forth.gr/example#takesPlaceAt> ?x3 .\n"
        "}\n"
        "GROUP BY ?x3",
    ),
    "intention: value click": (
        lambda: _LAPTOPS.with_condition(
            PathValueCondition(_PATH, EX.Greece)).to_sparql(),
        "SELECT DISTINCT ?x\n"
        "WHERE {\n"
        "  ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/example#Laptop> .\n"
        "  ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 .\n"
        "  ?v2 <http://www.ics.forth.gr/example#founder> ?v1 .\n"
        "  ?v2 <http://www.ics.forth.gr/example#born> <http://www.ics.forth.gr/example#Greece> .\n"
        "}",
    ),
    "intention: value-set click": (
        lambda: _LAPTOPS.with_condition(
            PathValueSetCondition(_PATH, (EX.Greece, Literal.of(3)))).to_sparql(),
        "SELECT DISTINCT ?x\n"
        "WHERE {\n"
        "  ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/example#Laptop> .\n"
        "  ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 .\n"
        "  ?v2 <http://www.ics.forth.gr/example#founder> ?v1 .\n"
        "  ?v2 <http://www.ics.forth.gr/example#born> ?v3 .\n"
        "  VALUES ?v3 { <http://www.ics.forth.gr/example#Greece> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> }\n"
        "}",
    ),
    "intention: range filter": (
        lambda: _LAPTOPS.with_condition(
            PathRangeCondition(_PATH, ">=", Literal.of(1950))).to_sparql(),
        "SELECT DISTINCT ?x\n"
        "WHERE {\n"
        "  ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/example#Laptop> .\n"
        "  ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 .\n"
        "  ?v2 <http://www.ics.forth.gr/example#founder> ?v1 .\n"
        "  ?v2 <http://www.ics.forth.gr/example#born> ?v3 .\n"
        "  FILTER((?v3 >= \"1950\"^^<http://www.w3.org/2001/XMLSchema#integer>)) .\n"
        "}",
    ),
    "intention: double pivot": (
        lambda: _LAPTOPS
        .with_pivot((PropertyRef(EX.manufacturer),))
        .with_pivot((PropertyRef(EX.origin), PropertyRef(EX.partOf, inverse=True)))
        .with_condition(
            PathValueCondition((PropertyRef(EX.name),), Literal.of("x")))
        .to_sparql(),
        "SELECT DISTINCT ?x\n"
        "WHERE {\n"
        "  { SELECT DISTINCT ?v1\n"
        "    WHERE {\n"
        "      { SELECT DISTINCT ?v2\n"
        "        WHERE {\n"
        "          ?v2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/example#Laptop> .\n"
        "        } }\n"
        "      ?v2 <http://www.ics.forth.gr/example#manufacturer> ?v1 .\n"
        "    } }\n"
        "  ?v1 <http://www.ics.forth.gr/example#origin> ?v3 .\n"
        "  ?x <http://www.ics.forth.gr/example#partOf> ?v3 .\n"
        "  ?x <http://www.ics.forth.gr/example#name> \"x\" .\n"
        "}",
    ),
    "SparqlFacetEngine.q_joins": (
        lambda: SparqlFacetEngine.q_joins(_PATH),
        "SELECT DISTINCT ?v3 WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/rdf-analytics#temp> . ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 . ?v2 <http://www.ics.forth.gr/example#founder> ?v1 . ?v2 <http://www.ics.forth.gr/example#born> ?v3 . }",
    ),
    "SparqlFacetEngine.q_counts": (
        lambda: SparqlFacetEngine.q_counts("?x ?p ?v .", "?x", ("?p", "?v")),
        "SELECT ?p ?v (COUNT(DISTINCT ?x) AS ?count) WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/rdf-analytics#temp> . ?x ?p ?v . } GROUP BY ?p ?v",
    ),
    "SparqlFacetEngine.q_path_counts": (
        lambda: SparqlFacetEngine.q_path_counts(_PATH),
        "SELECT ?v3 (COUNT(DISTINCT ?v2) AS ?count) WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/rdf-analytics#temp> . ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 . ?v2 <http://www.ics.forth.gr/example#founder> ?v1 . ?v2 <http://www.ics.forth.gr/example#born> ?v3 . FILTER(!isLiteral(?v1)) } GROUP BY ?v3",
    ),
    "SparqlFacetEngine.q_path_counts total": (
        lambda: SparqlFacetEngine.q_path_counts(_PATH, grouped=False),
        "SELECT (COUNT(DISTINCT ?v2) AS ?count) WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/rdf-analytics#temp> . ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 . ?v2 <http://www.ics.forth.gr/example#founder> ?v1 . ?v2 <http://www.ics.forth.gr/example#born> ?v3 . FILTER(!isLiteral(?v1)) }",
    ),
    "SparqlFacetEngine.q_restrict_value": (
        lambda: SparqlFacetEngine.q_restrict_value(_PATH, EX.Greece),
        "SELECT DISTINCT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.ics.forth.gr/rdf-analytics#temp> . ?x <http://www.ics.forth.gr/example#manufacturer> ?v1 . ?v2 <http://www.ics.forth.gr/example#founder> ?v1 . ?v2 <http://www.ics.forth.gr/example#born> ?v3 . FILTER(?v3 = <http://www.ics.forth.gr/example#Greece>) }",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_generated_text_is_pinned(case):
    generate, expected = _GOLDEN[case]
    assert generate() == expected


def test_one_step_type_under_two_names():
    assert PropertyRef is Attribute
    assert PropertyRef(EX.p) >> PropertyRef(EX.q) == compose_path(
        Attribute(EX.p), Attribute(EX.q))
    with pytest.raises(TypeError):
        PropertyRef("not an IRI")
