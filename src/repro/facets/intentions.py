"""State intentions, the clicks that extend them, and their SPARQL
expression (§5.3, §5.5, Tables 5.1/5.2).

Every interaction state has an *intention*: the query whose answer is
the state's extension.  An :class:`Intention` is a conjunctive tree:

* an optional **root class** condition (``?x rdf:type c``);
* an optional explicit **seed set** (the result of a keyword query, or
  an AF loaded as a new dataset — expressed with ``VALUES``);
* **conditions**, one per click — a further class, a value or a value
  set at the end of a (possibly expanded) path, a range filter.  A
  condition *is* the click and carries each form it has: ``path`` and
  ``value_ids`` (what ``FacetedSession.refine`` cuts the extension by),
  ``patterns`` (its SPARQL, Table 5.1), ``restriction`` (its HIFUN
  form, §5.5; :func:`condition_of` is the way back, §7.1), ``str`` (the
  new state's description) and its fields (what a saved session holds);
* an optional **pivot** (entity-type switch): the pre-pivot intention
  as a sub-select plus the chain that leads from its objects to this
  intention's; class and path conditions clicked afterwards apply to
  the pivoted objects like any other.

Every chain is written by :func:`repro.hifun.translator.path_patterns`,
the emitter the HIFUN translation uses.  :meth:`Intention.to_sparql`
produces a ``SELECT DISTINCT ?x`` query whose answer equals the state's
extension (the "SPARQL-only evaluation approach" of Table 5.2); the
tests check the equivalence on the states they reach.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Callable, ClassVar, Collection, List, Optional, Tuple, Union,
)

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import IRI, Literal, Term, display_name
from repro.hifun.attributes import Attribute, compose_path
from repro.hifun.query import COMPARATORS, Restriction
from repro.hifun.translator import path_patterns
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import comparison, number_comparison

if TYPE_CHECKING:
    from repro.facets.model import Path

#: ``(triple patterns, FILTER expressions)`` of one condition.
_Patterns = Tuple[List[str], List[str]]


def _path_name(path: Path) -> str:
    return "/".join(step.name for step in path)


@dataclass(frozen=True)
class ClassCondition:
    """``x ∈ inst(c)`` — a class-based transition was taken."""

    cls: IRI
    #: ``inst(c)`` *is* the ``rdf:type`` POS row of c.
    path: ClassVar[Path] = (Attribute(RDF.type),)

    def value_ids(self, graph: Graph) -> Collection[int]:
        return graph.encode_terms((self.cls,))

    def patterns(self, var: str, fresh: Callable[[], str]) -> _Patterns:
        return ([f"{var} {RDF.type.n3()} {self.cls.n3()} ."], [])

    def restriction(self) -> None:
        """``None``: HIFUN restricts attribute values, not the class."""

    def __str__(self) -> str:
        return f"class {self.cls.local_name()}"


@dataclass(frozen=True)
class PathValueCondition:
    """``∃ chain x -p1-> .. -pk-> v`` — a facet value was clicked."""

    path: Path
    value: Term

    def value_ids(self, graph: Graph) -> Collection[int]:
        return graph.encode_terms((self.value,))

    def patterns(self, var: str, fresh: Callable[[], str]) -> _Patterns:
        return (path_patterns(self.path, var, fresh, end=self.value.n3())[0], [])

    def restriction(self) -> Restriction:
        return Restriction(compose_path(*self.path), "=", self.value)

    def __str__(self) -> str:
        return f"{_path_name(self.path)} = {display_name(self.value)}"


@dataclass(frozen=True)
class PathRangeCondition:
    """``∃ chain x -p1-> .. -pk-> u with u <comparator> value`` — the
    range-filter action (Example 3 of §5.1)."""

    path: Path
    comparator: str
    value: Literal

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")

    def value_ids(self, graph: Graph) -> Collection[int]:
        """Every value the last step can end at — its POS row keys, a
        superset of the path's marker set that the restriction cuts
        back to it — that passes the bound (parsed once; a pair SPARQL
        cannot compare does not pass).  An order comparison with a
        numeric bound reads a value's number off the dictionary's memo;
        a value with no number is compared as a term."""
        last = self.path[-1]
        prop_id = graph.encode_term(last.prop)
        rows = graph.pos_ids(prop_id) if prop_id is not None else {}
        candidates = frozenset().union(*rows.values()) if last.inverse else rows
        passes = comparison(self.comparator, self.value)
        by_number = number_comparison(self.comparator, self.value)
        decode, numbers = graph.decode_id, graph.dictionary.numbers
        matching: List[int] = []
        for value_id in candidates:
            number = numbers[value_id] if by_number else None
            if number is not None:
                if by_number(number):
                    matching.append(value_id)
                continue
            try:
                if passes(decode(value_id)):
                    matching.append(value_id)
            except ExpressionError:
                pass
        return matching

    def patterns(self, var: str, fresh: Callable[[], str]) -> _Patterns:
        lines, current = path_patterns(self.path, var, fresh)
        return (lines, [f"{current} {self.comparator} {self.value.n3()}"])

    def restriction(self) -> Restriction:
        return Restriction(compose_path(*self.path), self.comparator, self.value)

    def __str__(self) -> str:
        return f"{_path_name(self.path)} {self.comparator} {self.value}"


@dataclass(frozen=True)
class PathValueSetCondition:
    """``∃ chain x -p1-> .. -pk-> v with v ∈ vset`` — a multi-value click
    on the same facet (``Restrict(E, p : vset)`` of §5.3.1)."""

    path: Path
    values: Tuple[Term, ...]

    def value_ids(self, graph: Graph) -> Collection[int]:
        return graph.encode_terms(self.values)

    def patterns(self, var: str, fresh: Callable[[], str]) -> _Patterns:
        lines, current = path_patterns(self.path, var, fresh)
        rendered = " ".join(v.n3() for v in self.values)
        lines.append(f"VALUES {current} {{ {rendered} }}")
        return (lines, [])

    def restriction(self) -> None:
        """``None``: a HIFUN restriction compares with one value."""

    def __str__(self) -> str:
        return f"{_path_name(self.path)} in {{{len(self.values)} values}}"


Condition = Union[ClassCondition, PathValueCondition, PathRangeCondition,
                  PathValueSetCondition]


def condition_of(restriction: Restriction) -> Condition:
    """The click that formulates a HIFUN restriction (§7.1), i.e.
    ``restriction()`` read the other way: a URI equality is a value
    click, anything else — ``=`` a literal included — a range filter."""
    path = restriction.attribute.steps()
    if restriction.is_uri_equality:
        return PathValueCondition(path, restriction.value)
    return PathRangeCondition(path, restriction.comparator, restriction.value)


@dataclass(frozen=True)
class Intention:
    """The query of a state: root class + seeds + conjunctive conditions.

    ``pivot`` supports the entity-type switch (§5.2.1 differentiator iii):
    when set to ``(inner_intention, path)``, this intention's objects are
    the values reached from the inner intention's objects along ``path``
    — ``Joins(inner, path)``.  Compilation nests the inner intention's
    patterns under a fresh variable.
    """

    root_class: Optional[IRI] = None
    seeds: Optional[Tuple[Term, ...]] = None
    conditions: Tuple[Condition, ...] = ()
    pivot: Optional[Tuple["Intention", Path]] = None

    def with_condition(self, condition: Condition) -> "Intention":
        """One more click; the first class clicked is the root class."""
        if isinstance(condition, ClassCondition) and self.root_class is None:
            return replace(self, root_class=condition.cls)
        return replace(self, conditions=self.conditions + (condition,))

    def with_class(self, cls: IRI) -> "Intention":
        return self.with_condition(ClassCondition(cls))

    def with_pivot(self, path: Path) -> "Intention":
        """A new intention whose objects are ``Joins(self, path)``."""
        return Intention(pivot=(self, tuple(path)))

    # ------------------------------------------------------------------
    def to_sparql(self, var: str = "?x") -> str:
        """The SPARQL expression of this intention (Table 5.1 style):
        ``SELECT DISTINCT ?x WHERE { ... }``."""
        counter = [0]

        def fresh() -> str:
            counter[0] += 1
            return f"?v{counter[0]}"

        return self._to_sparql(var, fresh)

    def _to_sparql(self, var: str, fresh: Callable[[], str]) -> str:
        lines: List[str] = []
        filters: List[str] = []
        if self.pivot is not None:
            inner, path = self.pivot
            inner_var = fresh()
            # Nest the inner intention as a subquery, then walk the path.
            inner_query = inner._to_sparql(inner_var, fresh)
            indented = "\n    ".join(inner_query.splitlines())
            lines.append("{ " + indented + " }")
            lines.extend(path_patterns(path, inner_var, fresh, end=var)[0])
        if self.seeds is not None:
            rendered = " ".join(t.n3() for t in sorted(self.seeds, key=lambda t: t.sort_key()))
            lines.append(f"VALUES {var} {{ {rendered} }}")
        if self.root_class is not None:
            lines.extend(ClassCondition(self.root_class).patterns(var, fresh)[0])
        if self.pivot is None and self.seeds is None and self.root_class is None:
            # The default initial state: every individual, i.e. every typed
            # subject that is not itself a class or property (footnote of
            # §5.3.2).
            lines.append(f"{var} {RDF.type.n3()} ?anytype .")
            filters.append(
                f"?anytype NOT IN ({RDFS.Class.n3()}, {RDF.Property.n3()})"
            )
        for condition in self.conditions:
            pattern_lines, filter_exprs = condition.patterns(var, fresh)
            lines.extend(pattern_lines)
            filters.extend(filter_exprs)
        body = "\n  ".join(lines)
        if filters:
            rendered = " && ".join(f"({f})" for f in filters)
            body += f"\n  FILTER({rendered}) ."
        return f"SELECT DISTINCT {var}\nWHERE {{\n  {body}\n}}"

    def describe(self) -> str:
        """A human-readable one-line description of the state query."""
        parts: List[str] = []
        if self.pivot is not None:
            inner, path = self.pivot
            parts.append(f"joins({inner.describe()}; {_path_name(path)})")
        if self.root_class is not None:
            parts.append(f"type={self.root_class.local_name()}")
        if self.seeds is not None:
            parts.append(f"seeds[{len(self.seeds)}]")
        parts.extend(str(c) for c in self.conditions)
        return " & ".join(parts) if parts else "all objects"

    def __str__(self) -> str:
        return self.describe()
