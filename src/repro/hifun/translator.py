"""HIFUN → SPARQL translation (§4.2, Algorithms 1–4).

The translation follows the dissertation exactly:

* the grouping expression yields triple-pattern chains in the WHERE
  clause plus variables in SELECT and GROUP BY (Algorithm 1/2);
* **compositions** become chained triple patterns
  ``?x1 f1 ?x2 . ?x2 f2 ?x3 ...`` (Algorithm 2 — Composition), written
  by :func:`path_patterns` — the one emitter the facet side's
  generators (state intentions, the SPARQL-only backend) share;
* **pairings** join their component chains on the shared root variable
  ``?x1`` (Algorithm 2 — Pairing / PairingOverCompositions);
* **derived attributes** produce no extra pattern; they wrap the chain's
  last variable in a SPARQL builtin in SELECT/GROUP BY (Algorithm 3);
* **restrictions**: a URI restriction becomes an extra triple pattern
  ``?xi g <uri>`` and a literal restriction a ``FILTER`` (Algorithm 1
  lines 3–7 and 10–14; Algorithm 4 for path restrictions);
* **result restrictions** become a ``HAVING`` clause (§4.2.3);
* the measuring expression yields a chain ending in the measured
  variable; each aggregate operation is applied to it in SELECT, under
  the name the query gives that answer column
  (:meth:`~repro.hifun.query.HifunQuery.answer_columns`).

:func:`translate` returns a :class:`Translation` carrying the SPARQL
text plus, role by role, the answer-column names it projected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Term
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Composition,
    Derived,
)
from repro.hifun.query import HifunQuery, Restriction


@dataclass
class Translation:
    """The output of :func:`translate`."""

    text: str
    #: SELECT/GROUP BY entries for the grouping paths, in order; each is a
    #: rendered expression over a pattern variable (e.g. ``?x2`` or
    #: ``MONTH(?x3)``).
    group_exprs: List[str]
    #: The alias given to each grouping path in the answer columns.
    group_aliases: List[str]
    #: ``(operation, alias)`` for every aggregate column, in order.
    aggregate_aliases: List[Tuple[str, str]]
    #: Alias of the count column, if ``with_count`` was requested.
    count_alias: Optional[str] = None

    @property
    def answer_columns(self) -> List[str]:
        columns = list(self.group_aliases)
        columns.extend(alias for _, alias in self.aggregate_aliases)
        if self.count_alias:
            columns.append(self.count_alias)
        return columns

    def __str__(self):
        return self.text


class _VarAllocator:
    """Fresh-variable source, ``?x1``, ``?x2``, ... as in the paper."""

    def __init__(self, prefix: str = "x"):
        self._prefix = prefix
        self._count = 0

    def new(self) -> str:
        self._count += 1
        return f"?{self._prefix}{self._count}"


def path_patterns(
    steps: Sequence[AttributeExpr],
    start: str,
    fresh: Callable[[], str],
    end: Optional[str] = None,
) -> Tuple[List[str], str]:
    """The triple patterns of a property path (Algorithm 2 — Composition;
    Table 5.1's chains): one ``?a <p> ?b .`` per step walking ``steps``
    from ``start``, written object-first for an inverse step.

    ``fresh()`` mints each intermediate variable — the caller's naming
    (``?x2…`` here, ``?v1…`` for intentions) is the only thing the
    callers differ in; the last step arrives at ``end`` when given (a
    rendered constant for a URI restriction or a value click, the outer
    variable for a pivot).  Returns ``(patterns, last term)``.
    """
    patterns: List[str] = []
    current = start
    for index, step in enumerate(steps):
        if not isinstance(step, Attribute):
            raise TypeError("derived attribute must be the path tail")
        target = end if end is not None and index == len(steps) - 1 else fresh()
        subject, obj = (target, current) if step.inverse else (current, target)
        patterns.append(f"{subject} {step.prop.n3()} {obj} .")
        current = target
    return patterns, current


class _TranslationBuilder:
    def __init__(self, root_var: str, variables: _VarAllocator):
        self.root_var = root_var
        self.vars = variables
        self.patterns: List[str] = []
        self.filters: List[str] = []
        #: memo of emitted path chains: path expr -> last variable
        self._chains: Dict[AttributeExpr, str] = {}

    # -- Algorithm 2 (Composition) / Algorithm 3 (derived) ---------------
    def chain(self, path: AttributeExpr, reuse: bool = True) -> str:
        """Emit the triple patterns of a path; return the rendered final
        expression (a variable, or ``FUNC(?var)`` for derived tails)."""
        if isinstance(path, Derived):
            inner = self.chain(path.base, reuse=reuse)
            return f"{path.function}({inner})"
        return self._plain_chain(path, reuse)

    def _plain_chain(self, path: AttributeExpr, reuse: bool) -> str:
        if reuse and path in self._chains:
            return self._chains[path]
        if not isinstance(path, (Attribute, Composition)):
            raise TypeError(f"cannot emit patterns for {path!r}")
        patterns, last = path_patterns(path.steps(), self.root_var, self.vars.new)
        self.patterns.extend(patterns)
        if reuse:
            self._chains[path] = last
        return last

    # -- Algorithm 1 lines 3–7 / Algorithm 4 (restrictions) --------------
    def restriction(self, r: Restriction, reuse_var: Optional[str]) -> None:
        """Emit a restriction.  ``reuse_var`` is a variable already bound
        to the restricted attribute's value (the measuring variable, per
        the §4.2.2 literal example), or None to emit a fresh chain."""
        if r.is_uri_equality:
            # URI restriction → extra triple pattern ending at the URI.
            self._chain_to_value(r.attribute, r.value)
            return
        if reuse_var is not None:
            target = reuse_var
        else:
            target = self.chain(r.attribute, reuse=False)
        self.filters.append(f"{target} {r.comparator} {_render_term(r.value)}")

    def _chain_to_value(self, path: AttributeExpr, value: Term) -> None:
        """Emit a chain whose final object is a constant (URI restriction)."""
        if isinstance(path, Derived):
            # Derived values are literals; a URI equality over a derived
            # attribute cannot occur (guarded by Restriction.__post_init__),
            # but handle it as a filter for robustness.
            inner = self.chain(path, reuse=False)
            self.filters.append(f"{inner} = {_render_term(value)}")
            return
        self.patterns.extend(path_patterns(
            path.steps(), self.root_var, self.vars.new,
            end=_render_term(value))[0])


def _render_term(term: Term) -> str:
    return term.n3()


def translate(
    query: HifunQuery,
    root_class: Optional[IRI] = None,
    prefixes: Optional[Dict[str, str]] = None,
) -> Translation:
    """Translate a HIFUN query to SPARQL (the full algorithm of §4.2.5).

    ``root_class`` restricts the analysis root ``D`` to the instances of
    a class (adds ``?x1 rdf:type <class>``), matching the analysis-context
    selection of §4.1.2.
    """
    variables = _VarAllocator()
    root_var = variables.new()  # ?x1
    builder = _TranslationBuilder(root_var, variables)

    if root_class is not None:
        builder.patterns.append(f"{root_var} {RDF.type.n3()} {root_class.n3()} .")

    # 1. Grouping expression (Algorithms 1–3).
    group_exprs = [builder.chain(path) for path in query.grouping_paths]

    # 2. Measuring expression.
    if query.measuring is None:
        measure_expr = root_var
    else:
        measure_expr = builder.chain(query.measuring)

    # 3. Restrictions (rg then rm; Algorithm 1 and Algorithm 4).
    for restriction in query.grouping_restrictions:
        builder.restriction(restriction, reuse_var=None)
    for restriction in query.measuring_restrictions:
        reuse = (
            measure_expr
            if query.measuring is not None
            and restriction.attribute == query.measuring
            else None
        )
        builder.restriction(restriction, reuse_var=reuse)

    # 4. SELECT clause: the query's answer columns, each bound to its
    # expression — group vars, aggregates, optional count.
    columns = list(query.answer_columns())
    exprs = group_exprs + [f"{op}({measure_expr})" for op in query.operations]
    if query.with_count:
        exprs.append(f"COUNT({root_var})")
    select_parts = [expr if expr == f"?{name}" else f"({expr} AS ?{name})"
                    for expr, name in zip(exprs, columns)]

    # 5. Assemble the query text.
    lines: List[str] = []
    if prefixes:
        # Sorted so the emitted text is identical across runs regardless
        # of how the caller built the mapping.
        for name, base in sorted(prefixes.items()):
            lines.append(f"PREFIX {name}: <{base}>")
    lines.append("SELECT " + " ".join(select_parts))
    lines.append("WHERE {")
    for pattern in builder.patterns:
        lines.append(f"  {pattern}")
    if builder.filters:
        condition = " && ".join(f"({f})" for f in builder.filters)
        lines.append(f"  FILTER({condition}) .")
    lines.append("}")
    if group_exprs:
        lines.append("GROUP BY " + " ".join(group_exprs))
    if query.result_restrictions:
        constraints = []
        for rr in query.result_restrictions:
            constraints.append(
                f"({rr.operation}({measure_expr}) {rr.comparator} "
                f"{_render_term(rr.value)})"
            )
        lines.append("HAVING " + " ".join(constraints))
    return Translation(
        text="\n".join(lines),
        group_exprs=group_exprs,
        group_aliases=columns[:len(group_exprs)],
        aggregate_aliases=list(zip(query.operations, columns[len(group_exprs):])),
        count_alias=columns[-1] if query.with_count else None,
    )
