"""Schema-aware static checking of HIFUN queries (codes ``H001``–``H009``).

:func:`check_hifun` walks a :class:`~repro.hifun.query.HifunQuery`
against an inferred :class:`~repro.analysis.schema.SchemaInfo` and
reports every defect it can *prove* before evaluation — the goal is to
reject ill-typed queries in microseconds, before the triple store is
touched, instead of silently returning an empty grouping.

==========  =========  ========================================================
Code        Severity   Defect class
==========  =========  ========================================================
``H001``    error      broken composition: a step's output can never feed
                       the next step (disjoint range/domain classes, or a
                       literal value composed into a further property)
``H002``    error      unknown property: neither data nor schema mentions it
``H003``    error      aggregate over an incompatible measure (``SUM``/``AVG``
                       over non-numeric or resource-valued attributes)
``H004``    error      restriction whose value can never match the
                       attribute's range/datatypes
``H005``    warning    non-functional grouping/measuring path (HIFUN §4.1.1
                       prerequisite violated: groups double-count)
``H006``    error      derived function over an incompatible input
                       (e.g. ``MONTH`` of a non-temporal attribute)
``H007``    warning    shadowed or effect-less attribute (duplicate pairing
                       component; derived measure under bare ``COUNT``)
``H008``    error      contradictory restriction conjunction (empty interval,
                       two different equality values)
``H009``    error      attribute not applicable to the analysis root class
==========  =========  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import (
    IRI,
    Literal,
    NUMERIC_DATATYPES,
    TEMPORAL_DATATYPES,
    XSD_BOOLEAN,
    XSD_INTEGER,
    XSD_STRING,
    display_name,
)
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Derived,
    paths_of,
)
from repro.hifun.query import HifunQuery, Restriction
from repro.analysis.diagnostics import AnalysisReport, _Collector
from repro.analysis.schema import SchemaInfo, infer_schema

#: Aggregates that require numeric inputs.
_NUMERIC_AGGREGATES = frozenset({"SUM", "AVG"})

#: Derived functions by input requirement.
_TEMPORAL_FUNCTIONS = frozenset(
    {"YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS"}
)
_NUMERIC_FUNCTIONS = frozenset({"ABS", "CEIL", "FLOOR", "ROUND"})
_STRING_FUNCTIONS = frozenset({"UCASE", "LCASE", "STRLEN"})

#: Output datatype of each derived function (None = mirrors input).
_FUNCTION_OUTPUT: Dict[str, str] = {
    **{fn: XSD_INTEGER for fn in _TEMPORAL_FUNCTIONS},
    **{fn: XSD_INTEGER for fn in ("STRLEN",)},
    **{fn: XSD_STRING for fn in ("STR", "UCASE", "LCASE")},
}


@dataclass(frozen=True)
class _Terminal:
    """What a path evaluates to: resources of some classes, literals of
    some datatypes, or unknown."""

    kind: str  # "resource" | "literal" | "unknown"
    classes: FrozenSet = frozenset()
    datatypes: FrozenSet[str] = frozenset()

    @property
    def provably_non_numeric(self) -> bool:
        if self.kind == "resource":
            return True
        return bool(self.datatypes) and not (self.datatypes & NUMERIC_DATATYPES)

    @property
    def provably_non_temporal(self) -> bool:
        if self.kind == "resource":
            return True
        return bool(self.datatypes) and not (self.datatypes & TEMPORAL_DATATYPES)


_UNKNOWN = _Terminal("unknown")


def _literal_category(datatype: str) -> str:
    if datatype in NUMERIC_DATATYPES:
        return "numeric"
    if datatype in TEMPORAL_DATATYPES:
        return "temporal"
    if datatype == XSD_BOOLEAN:
        return "boolean"
    return "string"


class _PathChecker:
    """Walks one attribute path, emitting diagnostics and returning the
    terminal :class:`_Terminal`."""

    def __init__(
        self,
        out: _Collector,
        schema: SchemaInfo,
        root_class: Optional[IRI],
    ):
        self.out = out
        self.schema = schema
        self.root_class = root_class

    def walk(
        self,
        path: AttributeExpr,
        locator: str,
        require_functional: bool = False,
    ) -> _Terminal:
        steps = path.steps()
        # A root class the schema has never seen (e.g. the temp class of
        # the analytics pipeline, not yet materialized) anchors nothing.
        anchored = (
            self.root_class is not None
            and self.root_class in self.schema.classes
        )
        current = (
            _Terminal("resource", frozenset({self.root_class}))
            if anchored
            else _Terminal("resource")
        )
        for index, step in enumerate(steps):
            where = f"{locator}.step[{index}]" if len(steps) > 1 else locator
            if isinstance(step, Derived):
                current = self._apply_derived(step, current, where)
                continue
            if not isinstance(step, Attribute):  # pragma: no cover - guarded
                return _UNKNOWN
            current = self._apply_attribute(
                step, current, where, index, require_functional
            )
            if current is _UNKNOWN:
                return current
        return current

    # ------------------------------------------------------------------
    def _apply_attribute(
        self,
        step: Attribute,
        current: _Terminal,
        where: str,
        index: int,
        require_functional: bool,
    ) -> _Terminal:
        schema = self.schema
        if current.kind == "literal":
            self.out.error(
                "H001",
                f"cannot compose {step.name!r} after a literal-valued step — "
                "literals have no outgoing properties",
                path=where,
                hint="move the derived/datatype step to the end of the path",
            )
            return _UNKNOWN
        sig = schema.signature(step.prop)
        if sig is None:
            self.out.error(
                "H002",
                f"unknown property {step.prop.n3()} — it appears nowhere in "
                "the data or schema",
                path=where,
                hint="check the IRI spelling and namespace",
            )
            return _UNKNOWN
        input_classes = sig.ranges if step.inverse else sig.domains
        if step.inverse and sig.is_datatype_property:
            # p⁻¹ consumes p's objects, which are literals — a resource
            # input can never feed it.
            self.out.error(
                "H001",
                f"inverse attribute {step.name!r} consumes literal values; "
                "it cannot follow a resource-valued step",
                path=where,
            )
            return _UNKNOWN
        if not schema.compatible(current.classes, input_classes):
            code = "H009" if index == 0 and self.root_class is not None else "H001"
            source = (
                f"root class {self.root_class.local_name()!r}"
                if code == "H009"
                else "the previous step's values"
            )
            self.out.error(
                code,
                f"attribute {step.name!r} is not applicable: {source} "
                f"(classes {_names(current.classes)}) never carry it "
                f"(expects {_names(input_classes)})",
                path=where,
            )
            return _UNKNOWN
        functional = sig.inverse_functional if step.inverse else sig.functional
        if require_functional and not functional:
            self.out.warning(
                "H005",
                f"attribute {step.name!r} is multi-valued on the data — "
                "grouping/measuring through it double-counts items "
                "(HIFUN §4.1.1 prerequisite)",
                path=where,
                hint="apply a feature-creation operator (⚙) first",
            )
        if step.inverse:
            return _Terminal("resource", sig.domains)
        if sig.is_datatype_property:
            return _Terminal("literal", frozenset(), sig.datatypes)
        if sig.is_object_property:
            return _Terminal("resource", sig.ranges)
        return _Terminal("unknown", sig.ranges, sig.datatypes)

    # ------------------------------------------------------------------
    def _apply_derived(
        self, step: Derived, current: _Terminal, where: str
    ) -> _Terminal:
        fn = step.function
        if fn in _TEMPORAL_FUNCTIONS and current.provably_non_temporal:
            self.out.error(
                "H006",
                f"derived function {fn} needs a date/dateTime input, but "
                f"{step.base} yields {_describe(current)}",
                path=where,
            )
        elif fn in _NUMERIC_FUNCTIONS and current.provably_non_numeric:
            self.out.error(
                "H006",
                f"derived function {fn} needs a numeric input, but "
                f"{step.base} yields {_describe(current)}",
                path=where,
            )
        elif fn in _STRING_FUNCTIONS and (
            current.kind == "resource"
            and fn != "STRLEN"  # STRLEN(STR(iri)) idiom is common; allow
            or (
                current.datatypes
                and all(
                    _literal_category(dt) in ("numeric", "temporal")
                    for dt in current.datatypes
                )
            )
        ):
            self.out.error(
                "H006",
                f"derived function {fn} needs a string input, but "
                f"{step.base} yields {_describe(current)}",
                path=where,
            )
        output = _FUNCTION_OUTPUT.get(fn)
        if output is None:
            return _Terminal("literal", frozenset(), current.datatypes)
        return _Terminal("literal", frozenset(), frozenset({output}))


def _names(classes: FrozenSet) -> str:
    if not classes:
        return "unknown"
    shown = sorted(display_name(cls) for cls in classes)
    return "{" + ", ".join(shown[:4]) + (", ..." if len(shown) > 4 else "") + "}"


def _describe(terminal: _Terminal) -> str:
    if terminal.kind == "resource":
        return f"resources {_names(terminal.classes)}"
    if terminal.datatypes:
        locals_ = sorted(dt.rsplit("#", 1)[-1] for dt in terminal.datatypes)
        return "literals of type " + ", ".join(locals_)
    return "values of unknown type"


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------
def check_hifun(
    query: HifunQuery,
    schema: SchemaInfo,
    root_class: Optional[IRI] = None,
    graph: Optional[Graph] = None,
) -> AnalysisReport:
    """Statically check a HIFUN query against an inferred schema.

    ``root_class`` anchors applicability checks (H009) when the analysis
    root is a named class; ``graph``, when given, additionally lets H004
    verify that URI restriction values exist and are well-typed.
    """
    out = _Collector()
    walker = _PathChecker(out, schema, root_class)

    # -- grouping -------------------------------------------------------
    grouping_paths = paths_of(query.grouping) if query.grouping is not None else ()
    seen: List[AttributeExpr] = []
    for index, path in enumerate(grouping_paths):
        locator = f"grouping[{index}]" if len(grouping_paths) > 1 else "grouping"
        if any(path == earlier for earlier in seen):
            out.warning(
                "H007",
                f"grouping component {path} duplicates an earlier component "
                "— its answer column shadows the first",
                path=locator,
            )
        seen.append(path)
        walker.walk(path, locator, require_functional=True)

    # -- measuring ------------------------------------------------------
    measure_terminal = _UNKNOWN
    if query.measuring is not None:
        measure_terminal = walker.walk(
            query.measuring, "measuring", require_functional=True
        )
        if isinstance(query.measuring, Derived) and set(query.operations) == {
            "COUNT"
        }:
            out.warning(
                "H007",
                f"derived function {query.measuring.function} on the measure "
                "has no effect under COUNT — the count ignores the value "
                "transformation",
                path="measuring",
            )
    for op_index, op in enumerate(query.operations):
        if op in _NUMERIC_AGGREGATES and measure_terminal.provably_non_numeric:
            out.error(
                "H003",
                f"{op} needs a numeric measure, but "
                f"{query.measuring} yields {_describe(measure_terminal)}",
                path=f"operations[{op_index}]",
                hint="use COUNT/MIN/MAX/SAMPLE, or measure a numeric attribute",
            )

    # -- restrictions ---------------------------------------------------
    _check_restrictions(
        out, walker, query.grouping_restrictions, "grouping_restrictions", graph
    )
    _check_restrictions(
        out, walker, query.measuring_restrictions, "measuring_restrictions", graph
    )
    _check_contradictions(
        out, query.grouping_restrictions + query.measuring_restrictions
    )
    return out.report()


def analyze_hifun(
    graph: Graph,
    query: HifunQuery,
    root_class: Optional[IRI] = None,
) -> AnalysisReport:
    """Convenience wrapper: infer the schema from ``graph`` and check."""
    return check_hifun(query, infer_schema(graph), root_class, graph)


# ---------------------------------------------------------------------------
def _check_restrictions(
    out: _Collector,
    walker: _PathChecker,
    restrictions: Tuple[Restriction, ...],
    family: str,
    graph: Optional[Graph],
) -> None:
    for index, restriction in enumerate(restrictions):
        locator = f"{family}[{index}]"
        terminal = walker.walk(restriction.attribute, locator)
        if terminal is _UNKNOWN:
            continue
        value = restriction.value
        if isinstance(value, IRI):
            if terminal.kind == "literal":
                out.error(
                    "H004",
                    f"restriction compares literal-valued "
                    f"{restriction.attribute} against the IRI "
                    f"{value.n3()} — it can never match",
                    path=locator,
                )
                continue
            if graph is not None:
                _check_uri_value(out, walker.schema, graph, restriction,
                                 terminal, locator)
            continue
        if isinstance(value, Literal):
            if terminal.kind == "resource":
                out.error(
                    "H004",
                    f"restriction compares resource-valued "
                    f"{restriction.attribute} against the literal "
                    f"{value.n3()} — it can never match",
                    path=locator,
                )
                continue
            if terminal.datatypes:
                want = _literal_category(value.datatype)
                have = {_literal_category(dt) for dt in terminal.datatypes}
                if want not in have:
                    out.error(
                        "H004",
                        f"restriction value {value.n3()} ({want}) can never "
                        f"match {restriction.attribute}, whose values are "
                        + "/".join(sorted(have)),
                        path=locator,
                    )


def _check_uri_value(
    out: _Collector,
    schema: SchemaInfo,
    graph: Graph,
    restriction: Restriction,
    terminal: "_Terminal",
    locator: str,
) -> None:
    value = restriction.value
    if graph.encode_term(value) is None:
        out.error(
            "H004",
            f"restriction value {value.n3()} does not occur in the graph — "
            "the restriction can never match",
            path=locator,
            hint="check the IRI spelling and namespace",
        )
        return
    value_classes = frozenset(graph.objects(value, RDF.type))
    if value_classes and not schema.compatible(value_classes, terminal.classes):
        out.error(
            "H004",
            f"restriction value {value.n3()} has classes "
            f"{_names(value_classes)}, but {restriction.attribute} ranges "
            f"over {_names(terminal.classes)} — it can never match",
            path=locator,
        )


def _check_contradictions(
    out: _Collector, restrictions: Tuple[Restriction, ...]
) -> None:
    """H008: a conjunction of restrictions on the same attribute that no
    single value can satisfy (two different ``=``, or an empty interval)."""
    by_attribute: Dict[AttributeExpr, List[Restriction]] = {}
    for restriction in restrictions:
        by_attribute.setdefault(restriction.attribute, []).append(restriction)
    for attribute, group in by_attribute.items():
        if len(group) < 2:
            continue
        equalities = [r for r in group if r.comparator == "="]
        values = {(type(r.value), r.value) for r in equalities}
        if len(values) > 1:
            out.error(
                "H008",
                f"restrictions require {attribute} to equal "
                f"{len(values)} different values at once — the conjunction "
                "can never match",
                path="restrictions",
            )
            continue
        bounds = _interval(group)
        if bounds is not None and not bounds:
            out.error(
                "H008",
                f"the restrictions on {attribute} define an empty interval "
                "— the conjunction can never match",
                path="restrictions",
            )


def _interval(group: List[Restriction]) -> Optional[bool]:
    """Satisfiability of comparison restrictions with comparable literal
    values; ``None`` when undecidable, else True/False."""
    lower: Optional[Tuple[object, bool]] = None  # (value, strict)
    upper: Optional[Tuple[object, bool]] = None
    for restriction in group:
        if not isinstance(restriction.value, Literal):
            return None
        value = restriction.value.to_python()
        comparator = restriction.comparator
        try:
            if comparator in (">", ">="):
                strict = comparator == ">"
                if lower is None or (value, strict) > (lower[0], lower[1]):
                    lower = (value, strict)
            elif comparator in ("<", "<="):
                strict = comparator == "<"
                if upper is None or (value, not strict) < (upper[0], not upper[1]):
                    upper = (value, strict)
            elif comparator == "=":
                if lower is None or value > lower[0]:
                    lower = (value, False)
                if upper is None or value < upper[0]:
                    upper = (value, False)
        except TypeError:
            return None
    if lower is None or upper is None:
        return None
    try:
        if lower[0] > upper[0]:
            return False
        if lower[0] == upper[0] and (lower[1] or upper[1]):
            return False
    except TypeError:
        return None
    return True
