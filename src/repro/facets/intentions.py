"""State intentions and their SPARQL expression (§5.5, Tables 5.1/5.2).

Every interaction state has an *intention*: the query whose answer is
the state's extension.  An :class:`Intention` is a conjunctive tree:

* an optional **root class** condition (``?x rdf:type c``);
* an optional explicit **seed set** (the result of a keyword query, or
  an AF loaded as a new dataset — expressed with ``VALUES``);
* **path conditions** — ``PathValueCondition`` for clicks on (possibly
  path-expanded) facet values and ``PathRangeCondition`` for range
  filters; each compiles to a chain of triple patterns per Table 5.1;
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
from typing import List, Optional, Tuple

from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import IRI, Literal, Term
from repro.hifun.translator import path_patterns


@dataclass(frozen=True)
class ClassCondition:
    """``x ∈ inst(c)`` — a class-based transition was taken."""

    cls: IRI

    def patterns(self, var: str, fresh) -> Tuple[List[str], List[str]]:
        return ([f"{var} {RDF.type.n3()} {self.cls.n3()} ."], [])

    def __str__(self):
        return f"type={self.cls.local_name()}"


@dataclass(frozen=True)
class PathValueCondition:
    """``∃ chain x -p1-> .. -pk-> v`` — a facet value was clicked.

    ``path`` is a tuple of :data:`~repro.facets.model.PropertyRef` steps.
    """

    path: tuple
    value: Term

    def patterns(self, var: str, fresh) -> Tuple[List[str], List[str]]:
        return (path_patterns(self.path, var, fresh, end=self.value.n3())[0], [])

    def __str__(self):
        path = "/".join(s.name for s in self.path)
        value = self.value.local_name() if isinstance(self.value, IRI) else str(self.value)
        return f"{path}={value}"


@dataclass(frozen=True)
class PathRangeCondition:
    """``∃ chain x -p1-> .. -pk-> u with u <comparator> value`` — the
    range-filter action (Example 3 of §5.1)."""

    path: tuple
    comparator: str
    value: Literal

    def patterns(self, var: str, fresh) -> Tuple[List[str], List[str]]:
        lines, current = path_patterns(self.path, var, fresh)
        return (lines, [f"{current} {self.comparator} {self.value.n3()}"])

    def __str__(self):
        path = "/".join(s.name for s in self.path)
        return f"{path} {self.comparator} {self.value}"


@dataclass(frozen=True)
class PathValueSetCondition:
    """``∃ chain x -p1-> .. -pk-> v with v ∈ vset`` — a multi-value click
    on the same facet (``Restrict(E, p : vset)`` of §5.3.1)."""

    path: tuple
    values: Tuple[Term, ...]

    def patterns(self, var: str, fresh) -> Tuple[List[str], List[str]]:
        lines, current = path_patterns(self.path, var, fresh)
        rendered = " ".join(v.n3() for v in self.values)
        lines.append(f"VALUES {current} {{ {rendered} }}")
        return (lines, [])

    def __str__(self):
        path = "/".join(s.name for s in self.path)
        return f"{path} in {{{len(self.values)}}}"


Condition = object  # union of the condition classes above


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
    pivot: Optional[tuple] = None  # (Intention, path)

    def with_condition(self, condition: Condition) -> "Intention":
        return replace(self, conditions=self.conditions + (condition,))

    def with_class(self, cls: IRI) -> "Intention":
        if self.root_class is None:
            return replace(self, root_class=cls)
        return self.with_condition(ClassCondition(cls))

    def with_pivot(self, path) -> "Intention":
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

    def _to_sparql(self, var: str, fresh) -> str:
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
            lines.append(f"{var} {RDF.type.n3()} {self.root_class.n3()} .")
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
            rendered = "/".join(s.name for s in path)
            parts.append(f"joins({inner.describe()}; {rendered})")
        if self.root_class is not None:
            parts.append(f"type={self.root_class.local_name()}")
        if self.seeds is not None:
            parts.append(f"seeds[{len(self.seeds)}]")
        parts.extend(str(c) for c in self.conditions)
        return " & ".join(parts) if parts else "all objects"

    def __str__(self):
        return self.describe()
