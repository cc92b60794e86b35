"""SPARQL expression operators, builtin functions and aggregates.

The value model: expression evaluation consumes and produces RDF
:class:`~repro.rdf.terms.Term` objects.  Numeric/temporal/boolean
operations unwrap literals to native Python values and wrap results back
into typed literals.  A type error raises :class:`ExpressionError`, which
FILTER evaluation converts to "condition is false" per the SPARQL spec.
"""

from __future__ import annotations

import datetime as _dt
import math
import operator
import re
from decimal import Decimal
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    native_number,
)
from repro.sparql.errors import ExpressionError

TRUE = Literal("true", XSD_BOOLEAN)
FALSE = Literal("false", XSD_BOOLEAN)


def make_boolean(value: bool) -> Literal:
    return TRUE if value else FALSE


def effective_boolean_value(term: Optional[Term]) -> bool:
    """The SPARQL Effective Boolean Value of a term."""
    if term is None:
        raise ExpressionError("EBV of unbound value")
    if isinstance(term, Literal):
        value = term.to_python()
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float, Decimal)):
            return value != 0 and not (isinstance(value, float) and math.isnan(value))
        if isinstance(value, str):
            return len(value) > 0
    raise ExpressionError(f"no effective boolean value for {term!r}")


def numeric_value(term: Term) -> Union[int, float, Decimal]:
    """:func:`native_number`, an error where there is none."""
    value = native_number(term)
    if value is None:
        raise ExpressionError(f"not a numeric literal: {term!r}")
    return value


def wrap_number(value) -> Literal:
    if isinstance(value, bool):
        return make_boolean(value)
    if isinstance(value, int):
        return Literal(str(value), XSD_INTEGER)
    if isinstance(value, Decimal):
        return Literal(str(value), XSD_DECIMAL)
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            text = f"{value:.1f}"
        else:  # XSD spells the non-finite doubles INF, -INF and NaN
            text = repr(value).replace("inf", "INF").replace("nan", "NaN")
        return Literal(text, XSD_DOUBLE)
    raise ExpressionError(f"cannot wrap {value!r} as a numeric literal")


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------
def _comparable_pair(a: Term, b: Term) -> Tuple[Any, Any]:
    """Native value pair for an order comparison, or raise ExpressionError."""
    if isinstance(a, Literal) and isinstance(b, Literal):
        return _comparable_values(a.to_python(), b.to_python())
    raise ExpressionError(f"cannot order-compare {a!r} and {b!r}")


def _comparable_values(va, vb):
    """:func:`_comparable_pair` on the literals' native values."""
    if isinstance(va, bool) or isinstance(vb, bool):
        if isinstance(va, bool) and isinstance(vb, bool):
            return va, vb
        raise ExpressionError("boolean compared with non-boolean")
    if isinstance(va, (int, float, Decimal)) and isinstance(vb, (int, float, Decimal)):
        return float(va), float(vb)
    if isinstance(va, _dt.datetime) and isinstance(vb, _dt.datetime):
        return _naive(va), _naive(vb)
    if isinstance(va, _dt.datetime) and isinstance(vb, _dt.date):
        return _naive(va), _dt.datetime.combine(vb, _dt.time())
    if isinstance(va, _dt.date) and isinstance(vb, _dt.datetime):
        return _dt.datetime.combine(va, _dt.time()), _naive(vb)
    if isinstance(va, _dt.date) and isinstance(vb, _dt.date):
        return va, vb
    if isinstance(va, str) and isinstance(vb, str):
        return va, vb
    raise ExpressionError(f"cannot order-compare {va!r} and {vb!r}")


def _naive(value: _dt.datetime) -> _dt.datetime:
    return value.replace(tzinfo=None) if value.tzinfo else value


def equals(a: Term, b: Term) -> bool:
    """RDF term equality with numeric/temporal value equality for literals."""
    if a == b:
        return True
    if isinstance(a, Literal) and isinstance(b, Literal):
        try:
            va, vb = _comparable_pair(a, b)
            return va == vb
        except ExpressionError:
            return False
    return False


_ORDER_TESTS = {"<": operator.lt, ">": operator.gt,
                "<=": operator.le, ">=": operator.ge}


def compare(op: str, a: Term, b: Term) -> bool:
    if op == "=":
        return equals(a, b)
    if op == "!=":
        return not equals(a, b)
    va, vb = _comparable_pair(a, b)
    test = _ORDER_TESTS.get(op)
    if test is None:
        raise ExpressionError(f"unknown comparison operator {op!r}")
    return test(va, vb)


def comparison(op: str, b: Term) -> Callable[[Term], bool]:
    """``lambda a: compare(op, a, b)`` with ``b`` parsed once — for
    testing many terms against one bound.  Verdicts and errors are
    :func:`compare`'s, raised when the predicate is called."""
    test = _ORDER_TESTS.get(op)
    if test is None or not isinstance(b, Literal):
        return lambda a: compare(op, a, b)
    vb = b.to_python()

    def passes(a: Term) -> bool:
        if not isinstance(a, Literal):
            raise ExpressionError(f"cannot order-compare {a!r} and {b!r}")
        va, wb = _comparable_values(a.to_python(), vb)
        return test(va, wb)

    return passes


def number_comparison(op: str, b: Term
                      ) -> Optional[Callable[[Union[int, float, Decimal]], bool]]:
    """:func:`comparison` on the number of a numeric literal, for an
    order comparison with a numeric bound (``None`` for any other)."""
    test, vb = _ORDER_TESTS.get(op), native_number(b)
    if test is None or vb is None:
        return None
    bound = float(vb)
    return lambda va: test(float(va), bound)


def arithmetic(op: str, a: Term, b: Term) -> Literal:
    va, vb = numeric_value(a), numeric_value(b)
    try:
        # Numeric type promotion (SPARQL 1.1 §17.3): integer → decimal
        # → double, so a double on either side makes both doubles.
        if isinstance(va, float) or isinstance(vb, float):
            va, vb = float(va), float(vb)
        elif isinstance(va, Decimal) != isinstance(vb, Decimal):
            va, vb = Decimal(va), Decimal(vb)
        if op == "+":
            return wrap_number(va + vb)
        if op == "-":
            return wrap_number(va - vb)
        if op == "*":
            return wrap_number(va * vb)
        if op == "/":
            if isinstance(va, int) and isinstance(vb, int):
                result = Decimal(va) / Decimal(vb)
                if result == result.to_integral_value():
                    return wrap_number(int(result))
                return wrap_number(result)
            return wrap_number(va / vb)
    except (ZeroDivisionError, ArithmeticError) as exc:
        raise ExpressionError(str(exc)) from exc
    raise ExpressionError(f"unknown arithmetic operator {op!r}")


# ---------------------------------------------------------------------------
# Builtin functions
# ---------------------------------------------------------------------------
def _string_value(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    raise ExpressionError(f"not a string-valued term: {term!r}")


def _temporal_value(term: Term) -> _dt.date:
    if isinstance(term, Literal):
        value = term.to_python()
        if isinstance(value, (_dt.date, _dt.datetime)):
            return value
        if term.datatype.endswith("gYear") and isinstance(value, int):
            return _dt.date(value, 1, 1)
    raise ExpressionError(f"not a date/dateTime literal: {term!r}")


def _fn_str(args):
    return Literal(_string_value(args[0]), XSD_STRING)


def _fn_lang(args):
    if isinstance(args[0], Literal):
        return Literal(args[0].language, XSD_STRING)
    raise ExpressionError("LANG of non-literal")


def _fn_datatype(args):
    if isinstance(args[0], Literal):
        return IRI(args[0].datatype)
    raise ExpressionError("DATATYPE of non-literal")


def _temporal_part(part: str) -> Callable[[List[Term]], Term]:
    def fn(args):
        value = _temporal_value(args[0])
        if part in ("hour", "minute", "second") and not isinstance(value, _dt.datetime):
            raise ExpressionError(f"{part} of a plain date")
        attr = {"hour": "hour", "minute": "minute", "second": "second",
                "year": "year", "month": "month", "day": "day"}[part]
        return wrap_number(int(getattr(value, attr)))

    return fn


def _fn_abs(args):
    return wrap_number(abs(numeric_value(args[0])))


def _fn_ceil(args):
    return wrap_number(int(math.ceil(numeric_value(args[0]))))


def _fn_floor(args):
    return wrap_number(int(math.floor(numeric_value(args[0]))))


def _fn_round(args):
    value = numeric_value(args[0])
    return wrap_number(int(math.floor(float(value) + 0.5)))


def _fn_concat(args):
    return Literal("".join(_string_value(a) for a in args), XSD_STRING)


def _fn_ucase(args):
    return Literal(_string_value(args[0]).upper(), XSD_STRING)


def _fn_lcase(args):
    return Literal(_string_value(args[0]).lower(), XSD_STRING)


def _fn_strlen(args):
    return wrap_number(len(_string_value(args[0])))


def _fn_substr(args):
    source = _string_value(args[0])
    start = int(numeric_value(args[1]))
    if len(args) > 2:
        length = int(numeric_value(args[2]))
        return Literal(source[start - 1 : start - 1 + length], XSD_STRING)
    return Literal(source[start - 1 :], XSD_STRING)


def _fn_contains(args):
    return make_boolean(_string_value(args[1]) in _string_value(args[0]))


def _fn_strstarts(args):
    return make_boolean(_string_value(args[0]).startswith(_string_value(args[1])))


def _fn_strends(args):
    return make_boolean(_string_value(args[0]).endswith(_string_value(args[1])))


def _fn_strbefore(args):
    source, sep = _string_value(args[0]), _string_value(args[1])
    head, found, _ = source.partition(sep)
    return Literal(head if found else "", XSD_STRING)


def _fn_strafter(args):
    source, sep = _string_value(args[0]), _string_value(args[1])
    _, found, tail = source.partition(sep)
    return Literal(tail if found else "", XSD_STRING)


def _fn_replace(args):
    source = _string_value(args[0])
    pattern = _string_value(args[1])
    replacement = _string_value(args[2])
    return Literal(re.sub(pattern, replacement, source), XSD_STRING)


def _fn_regex(args):
    text = _string_value(args[0])
    pattern = _string_value(args[1])
    flags = 0
    if len(args) > 2 and "i" in _string_value(args[2]):
        flags |= re.IGNORECASE
    return make_boolean(re.search(pattern, text, flags) is not None)


def _fn_isuri(args):
    return make_boolean(isinstance(args[0], IRI))


def _fn_isliteral(args):
    return make_boolean(isinstance(args[0], Literal))


def _fn_isblank(args):
    return make_boolean(isinstance(args[0], BNode))


def _fn_isnumeric(args):
    return make_boolean(isinstance(args[0], Literal) and args[0].is_numeric())


def _fn_uri(args):
    return IRI(_string_value(args[0]))


BUILTINS: Dict[str, Callable[[List[Term]], Term]] = {
    "STR": _fn_str,
    "LANG": _fn_lang,
    "DATATYPE": _fn_datatype,
    "YEAR": _temporal_part("year"),
    "MONTH": _temporal_part("month"),
    "DAY": _temporal_part("day"),
    "HOURS": _temporal_part("hour"),
    "MINUTES": _temporal_part("minute"),
    "SECONDS": _temporal_part("second"),
    "ABS": _fn_abs,
    "CEIL": _fn_ceil,
    "FLOOR": _fn_floor,
    "ROUND": _fn_round,
    "CONCAT": _fn_concat,
    "UCASE": _fn_ucase,
    "LCASE": _fn_lcase,
    "STRLEN": _fn_strlen,
    "SUBSTR": _fn_substr,
    "CONTAINS": _fn_contains,
    "STRSTARTS": _fn_strstarts,
    "STRENDS": _fn_strends,
    "STRBEFORE": _fn_strbefore,
    "STRAFTER": _fn_strafter,
    "REPLACE": _fn_replace,
    "REGEX": _fn_regex,
    "ISURI": _fn_isuri,
    "ISIRI": _fn_isuri,
    "ISLITERAL": _fn_isliteral,
    "ISBLANK": _fn_isblank,
    "ISNUMERIC": _fn_isnumeric,
    "URI": _fn_uri,
    "IRI": _fn_uri,
}


# ---------------------------------------------------------------------------
# XSD constructor casts (called by datatype IRI)
# ---------------------------------------------------------------------------
def xsd_cast(datatype: str, term: Term) -> Literal:
    source = _string_value(term).strip()
    try:
        if datatype == XSD_INTEGER:
            if isinstance(term, Literal) and term.is_numeric():
                return Literal(str(int(float(term.lexical))), XSD_INTEGER)
            return Literal(str(int(source)), XSD_INTEGER)
        if datatype == XSD_DECIMAL:
            value = Decimal(source)
            if not value.is_finite():
                raise ValueError("no NaN or infinity in xsd:decimal")
            return Literal(str(value), XSD_DECIMAL)
        if datatype == XSD_DOUBLE:
            return Literal(repr(float(source)), XSD_DOUBLE)
        if datatype == XSD_BOOLEAN:
            if source in ("true", "1"):
                return TRUE
            if source in ("false", "0"):
                return FALSE
            raise ExpressionError(f"cannot cast {source!r} to boolean")
        if datatype == XSD_STRING:
            return Literal(source, XSD_STRING)
        if datatype == XSD_DATE:
            return Literal(_dt.date.fromisoformat(source[:10]).isoformat(), XSD_DATE)
        if datatype == XSD_DATETIME:
            normalized = source.replace("Z", "+00:00")
            if "T" not in normalized:
                normalized += "T00:00:00"
            return Literal(
                _dt.datetime.fromisoformat(normalized).isoformat(), XSD_DATETIME
            )
    except (ValueError, ArithmeticError) as exc:
        raise ExpressionError(f"cast to {datatype} failed: {exc}") from exc
    raise ExpressionError(f"unsupported cast datatype {datatype}")


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------
def aggregate(name: str, values: List[Optional[Term]], distinct: bool,
              separator: str) -> Optional[Term]:
    """Compute an aggregate over per-solution expression values.

    ``values`` contains one entry per group member; ``None`` marks an
    expression error or unbound value (skipped, per the spec).
    COUNT(*) is handled by the caller (it counts solutions, including
    those with errors).  SAMPLE and GROUP_CONCAT read the values in
    term order, so their answer is the same whatever order a join
    produced them in.
    """
    present = [v for v in values if v is not None]
    if distinct:
        seen = set()
        unique = []
        for v in present:
            if v not in seen:
                seen.add(v)
                unique.append(v)
        present = unique
    if name == "COUNT":
        return wrap_number(len(present))
    if name == "SAMPLE":
        return min(present, key=lambda t: t.sort_key(), default=None)
    if name == "GROUP_CONCAT":
        present.sort(key=lambda t: t.sort_key())
        try:
            return Literal(
                separator.join(_string_value(v) for v in present), XSD_STRING
            )
        except ExpressionError:
            return None
    try:
        numbers = [numeric_value(v) for v in present]
    except ExpressionError:
        if name == "MIN":
            return min(present, key=lambda t: t.sort_key())
        if name == "MAX":
            return max(present, key=lambda t: t.sort_key())
        return None
    return reduce_numbers(name, numbers)


def reduce_numbers(name: str, numbers: List[Union[int, float, Decimal]]
                   ) -> Optional[Literal]:
    """SUM, AVG, MIN or MAX of native numbers: over none, SUM is 0 and
    the others are unbound."""
    if not numbers:
        if name == "SUM":
            return wrap_number(0)
        return None
    if name == "SUM":
        if set(map(type, numbers)) == {int}:
            return wrap_number(sum(numbers))
        return wrap_number(sum(map(float, numbers)))
    if name == "AVG":
        return wrap_number(sum(map(float, numbers)) / len(numbers))
    if name == "MIN":
        return wrap_number(min(numbers, key=float))
    if name == "MAX":
        return wrap_number(max(numbers, key=float))
    raise ExpressionError(f"unknown aggregate {name!r}")
