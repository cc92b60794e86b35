"""HIFUN queries and restrictions (general form ``(gE/rg, mE/rm, opE/ro)``).

A :class:`HifunQuery` has:

* ``grouping`` — an attribute expression, or ``None`` for the empty
  grouping ``ε`` (Example 1 of §5.1: an aggregate without GROUP BY);
* ``measuring`` — an attribute expression, or ``None`` for the identity
  function ``ID`` (used with COUNT: Example 2 of §5.1);
* ``operations`` — one or more aggregate operation names; the paper's
  GUI allows several (Fig 6.2: *"Average, sum and max price ..."*);
* ``grouping_restrictions`` / ``measuring_restrictions`` — conjunctive
  :class:`Restriction` lists (``rg`` and ``rm``);
* ``result_restrictions`` — :class:`ResultRestriction` list (``ro``),
  translated to a HAVING clause;
* ``with_count`` — also report the group cardinality (the FS model's
  count information).

:meth:`HifunQuery.answer_columns` names the columns of the query's
answer — for the translation and for every engine's Answer Frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.rdf.terms import IRI, Literal, Term
from repro.hifun.attributes import (
    Attribute,
    AttributeExpr,
    Composition,
    Derived,
    Pairing,
    paths_of,
)

#: Aggregate operations supported by HIFUN's reduction step.
OPERATIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT")

#: Comparison operators usable in restrictions.
COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Restriction:
    """An attribute restriction, e.g. ``takesPlaceAt(i) = branch1`` or
    ``inQuantity(i) >= 1`` or ``origin ∘ manufacturer(i) = US``.

    ``attribute`` is the restricted attribute expression (a path);
    ``comparator`` one of :data:`COMPARATORS`; ``value`` a Term.  Per
    §4.2.2, a URI value with ``=`` becomes a triple pattern, anything
    else becomes a FILTER.
    """

    attribute: AttributeExpr
    comparator: str
    value: Term

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")
        if isinstance(self.attribute, Pairing):
            raise TypeError("restrictions apply to a single path, not a pairing")
        if not isinstance(self.value, Term):
            raise TypeError(
                "restriction value must be an RDF Term; use Literal.of(...) "
                f"or an IRI, got {type(self.value).__name__}"
            )
        if isinstance(self.value, IRI) and self.comparator not in ("=", "!="):
            raise ValueError("URI restrictions support only '=' and '!='")

    @property
    def is_uri_equality(self) -> bool:
        return isinstance(self.value, IRI) and self.comparator == "="

    def __str__(self):
        return f"{self.attribute} {self.comparator} {self.value}"


@dataclass(frozen=True)
class ResultRestriction:
    """A restriction on the query answer (``ro``) — a HAVING constraint.

    ``operation`` names which aggregate the constraint applies to (must
    be one of the query's operations).
    """

    operation: str
    comparator: str
    value: Literal

    def __post_init__(self):
        if self.operation.upper() not in OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}")
        object.__setattr__(self, "operation", self.operation.upper())
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")
        if not isinstance(self.value, Literal):
            raise TypeError("result restrictions compare against a Literal")

    def __str__(self):
        return f"ans[{self.operation}] {self.comparator} {self.value}"


@dataclass(frozen=True)
class HifunQuery:
    """A HIFUN analytic query ``(gE/rg, mE/rm, opE/ro)``."""

    grouping: Optional[AttributeExpr]
    measuring: Optional[AttributeExpr]
    operation: Union[str, Tuple[str, ...]] = "COUNT"
    grouping_restrictions: Tuple[Restriction, ...] = ()
    measuring_restrictions: Tuple[Restriction, ...] = ()
    result_restrictions: Tuple[ResultRestriction, ...] = ()
    with_count: bool = False

    def __post_init__(self):
        ops = self.operation
        if isinstance(ops, str):
            ops = (ops,)
        ops = tuple(op.upper() for op in ops)
        for op in ops:
            if op not in OPERATIONS:
                raise ValueError(f"unknown aggregate operation {op!r}")
        if not ops:
            raise ValueError("a HIFUN query needs at least one operation")
        object.__setattr__(self, "operation", ops)
        if self.measuring is None and any(op != "COUNT" for op in ops):
            raise ValueError(
                "the identity measuring function (measuring=None) only "
                "supports COUNT"
            )
        object.__setattr__(
            self, "grouping_restrictions", tuple(self.grouping_restrictions)
        )
        object.__setattr__(
            self, "measuring_restrictions", tuple(self.measuring_restrictions)
        )
        object.__setattr__(
            self, "result_restrictions", tuple(self.result_restrictions)
        )
        for restriction in self.result_restrictions:
            if restriction.operation not in ops:
                raise ValueError(
                    f"result restriction on {restriction.operation} but the "
                    f"query computes {ops}"
                )

    @property
    def operations(self) -> Tuple[str, ...]:
        """The aggregate operations as a tuple (normalized)."""
        return self.operation  # type: ignore[return-value]

    @property
    def grouping_paths(self) -> Tuple[AttributeExpr, ...]:
        if self.grouping is None:
            return ()
        return paths_of(self.grouping)

    def answer_columns(self) -> Tuple[str, ...]:
        """The names of the answer's columns (Propositions 1–2): one per
        grouping path (the local names of its steps), one per operation
        (``<op>_<measure>``, ``_items`` for the identity measure) and,
        with ``with_count``, the group cardinality; a repeated name gets
        the suffix ``2``, ``3``, ..."""
        stem = "items" if self.measuring is None else _stem(self.measuring)
        names = [_stem(path) for path in self.grouping_paths]
        names += [f"{op.lower()}_{stem}" for op in self.operations]
        if self.with_count:
            names.append("count_items")
        used: Dict[str, int] = {}
        for index, name in enumerate(names):
            used[name] = count = used.get(name, 0) + 1
            if count > 1:
                names[index] = f"{name}{count}"
        return tuple(names)

    def restricted(
        self,
        grouping: Sequence[Restriction] = (),
        measuring: Sequence[Restriction] = (),
        result: Sequence[ResultRestriction] = (),
    ) -> "HifunQuery":
        """A copy with additional restrictions appended."""
        return HifunQuery(
            grouping=self.grouping,
            measuring=self.measuring,
            operation=self.operations,
            grouping_restrictions=self.grouping_restrictions + tuple(grouping),
            measuring_restrictions=self.measuring_restrictions + tuple(measuring),
            result_restrictions=self.result_restrictions + tuple(result),
            with_count=self.with_count,
        )

    def __str__(self):
        g = str(self.grouping) if self.grouping is not None else "ε"
        if self.grouping_restrictions:
            g += "/" + " ∧ ".join(str(r) for r in self.grouping_restrictions)
        m = str(self.measuring) if self.measuring is not None else "ID"
        if self.measuring_restrictions:
            m += "/" + " ∧ ".join(str(r) for r in self.measuring_restrictions)
        op = ",".join(self.operations)
        if self.result_restrictions:
            op += "/" + " ∧ ".join(str(r) for r in self.result_restrictions)
        return f"({g}, {m}, {op})"


def _stem(path: AttributeExpr) -> str:
    if isinstance(path, Attribute):
        return _sanitize(path.prop.local_name())
    if isinstance(path, Composition):
        return _sanitize("_".join(p.prop.local_name() if isinstance(p, Attribute)
                                  else str(p) for p in path.parts))
    if isinstance(path, Derived):
        return f"{path.function.lower()}_{_stem(path.base)}"
    return "col"


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    cleaned = re.sub(r"_+", "_", cleaned).strip("_")
    return cleaned or "col"
