"""RDF term model: IRIs, blank nodes and typed literals.

The three term kinds mirror the RDF 1.1 abstract syntax.  All terms are
immutable, hashable and totally ordered (IRIs < blank nodes < literals),
which lets them be used as dictionary keys, set members and sort keys
throughout the engine.

Literals carry an optional datatype IRI and an optional language tag, and
expose :meth:`Literal.to_python` which maps the common XSD datatypes onto
native Python values (int, float, Decimal, bool, date, datetime).  Numeric
and temporal comparisons in SPARQL FILTERs and HIFUN restrictions are
performed on those native values.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Union

_XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_FLOAT = _XSD + "float"
XSD_BOOLEAN = _XSD + "boolean"
XSD_DATE = _XSD + "date"
XSD_DATETIME = _XSD + "dateTime"
XSD_GYEAR = _XSD + "gYear"

_NUMERIC_DATATYPES = frozenset(
    {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}
)
_TEMPORAL_DATATYPES = frozenset({XSD_DATE, XSD_DATETIME, XSD_GYEAR})

#: Public aliases used by the static analyzers (repro.analysis).
NUMERIC_DATATYPES = _NUMERIC_DATATYPES
TEMPORAL_DATATYPES = _TEMPORAL_DATATYPES


class Term:
    """Base class for all RDF terms.  Only its subclasses are instantiated."""

    __slots__ = ()

    #: Sort rank used for the total order across term kinds.
    _rank = 0

    def sort_key(self):
        """Key tuple giving a deterministic total order over mixed terms."""
        raise NotImplementedError


@dataclass(frozen=True, order=False)
class IRI(Term):
    """An IRI reference, e.g. ``IRI("http://example.org/Laptop")``."""

    value: str
    _rank = 0

    def __str__(self):
        return self.value

    def __repr__(self):
        return f"<{self.value}>"

    def n3(self):
        """N-Triples / Turtle serialization of this IRI."""
        return f"<{self.value}>"

    def local_name(self):
        """The fragment after the last ``#`` or ``/`` — used for display."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value

    def sort_key(self):
        return (self._rank, self.value)

    def __lt__(self, other):
        return _term_lt(self, other)


@dataclass(frozen=True, order=False)
class BNode(Term):
    """A blank node with a local label, e.g. ``BNode("b0")``."""

    label: str
    _rank = 1

    def __str__(self):
        return f"_:{self.label}"

    def __repr__(self):
        return f"_:{self.label}"

    def n3(self):
        return f"_:{self.label}"

    def sort_key(self):
        return (self._rank, self.label)

    def __lt__(self, other):
        return _term_lt(self, other)


@dataclass(frozen=True, order=False)
class Literal(Term):
    """A literal with lexical form, optional datatype IRI and language tag.

    ``Literal.of`` is the preferred constructor: it infers the datatype from
    a native Python value, so ``Literal.of(3)`` is an ``xsd:integer`` and
    ``Literal.of(datetime.date(2021, 6, 10))`` is an ``xsd:date``.
    """

    lexical: str
    datatype: str = XSD_STRING
    language: str = ""
    _rank = 2

    @staticmethod
    def of(value: Union[str, int, float, bool, Decimal, _dt.date, _dt.datetime]) -> "Literal":
        """Build a literal from a native Python value, inferring the datatype."""
        if isinstance(value, bool):
            return Literal("true" if value else "false", XSD_BOOLEAN)
        if isinstance(value, int):
            return Literal(str(value), XSD_INTEGER)
        if isinstance(value, float):
            return Literal(repr(value), XSD_DOUBLE)
        if isinstance(value, Decimal):
            return Literal(str(value), XSD_DECIMAL)
        if isinstance(value, _dt.datetime):
            return Literal(value.isoformat(), XSD_DATETIME)
        if isinstance(value, _dt.date):
            return Literal(value.isoformat(), XSD_DATE)
        if isinstance(value, str):
            return Literal(value, XSD_STRING)
        raise TypeError(f"cannot build a Literal from {type(value).__name__}")

    def is_numeric(self):
        return self.datatype in _NUMERIC_DATATYPES

    def is_temporal(self):
        return self.datatype in _TEMPORAL_DATATYPES

    def to_python(self):
        """The native Python value of this literal.

        Falls back to the lexical form for unknown datatypes or malformed
        lexical values — errors never propagate out of value conversion,
        mirroring SPARQL's lenient treatment of ill-typed literals.
        """
        try:
            if self.datatype == XSD_INTEGER:
                return int(self.lexical)
            if self.datatype == XSD_DECIMAL:
                return Decimal(self.lexical)
            if self.datatype in (XSD_DOUBLE, XSD_FLOAT):
                return float(self.lexical)
            if self.datatype == XSD_BOOLEAN:
                return self.lexical.strip().lower() in ("true", "1")
            if self.datatype == XSD_DATE:
                return _dt.date.fromisoformat(self.lexical)
            if self.datatype == XSD_DATETIME:
                return _dt.datetime.fromisoformat(self.lexical.replace("Z", "+00:00"))
            if self.datatype == XSD_GYEAR:
                return int(self.lexical)
        except (ValueError, InvalidOperation):
            pass
        return self.lexical

    def __str__(self):
        return self.lexical

    def __repr__(self):
        return self.n3()

    def n3(self):
        escaped = _escape(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def sort_key(self):
        # Order literals numerically when possible so facet values display
        # in natural order; mixed-type comparisons fall back to lexical.
        value = self.to_python()
        if isinstance(value, bool):
            return (self._rank, 0, "", int(value), "")
        if isinstance(value, (int, float, Decimal)):
            return (self._rank, 0, "", float(value), "")
        if isinstance(value, (_dt.date, _dt.datetime)):
            return (self._rank, 1, value.isoformat(), 0.0, "")
        return (self._rank, 2, self.lexical, 0.0, self.language)

    def __lt__(self, other):
        return _term_lt(self, other)


def display_name(term: Term) -> str:
    """How a term is shown to a user: an IRI by its local name, any
    other term as ``str`` (a literal's lexical form)."""
    return term.local_name() if isinstance(term, IRI) else str(term)


#: A subject–predicate–object statement.
Triple = tuple


def triple(s: Term, p: Term, o: Term) -> Triple:
    """Build a triple after validating the slot types (RDF 1.1 rules)."""
    if not isinstance(s, (IRI, BNode)):
        raise TypeError(f"triple subject must be an IRI or BNode, got {s!r}")
    if not isinstance(p, IRI):
        raise TypeError(f"triple predicate must be an IRI, got {p!r}")
    if not isinstance(o, (IRI, BNode, Literal)):
        raise TypeError(f"triple object must be an RDF term, got {o!r}")
    return (s, p, o)


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_RE = re.compile(r'[\\"\n\r\t]')


def _escape(text: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(0)], text)


def _term_lt(a: Term, b: Term) -> bool:
    if not isinstance(b, Term):
        return NotImplemented
    ka, kb = a.sort_key(), b.sort_key()
    if ka[0] != kb[0]:
        return ka[0] < kb[0]
    # Same kind: compare the remaining key components pairwise; they are
    # homogeneous within a kind except Literal, whose key is padded.
    return ka[1:] < kb[1:]
