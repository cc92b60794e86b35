"""N-Triples parser and serializer.

N-Triples is the line-oriented subset of Turtle: one triple per line,
absolute IRIs only.  The parser accepts the full N-Triples grammar for
the term kinds this library models (IRIs, blank nodes, literals with
datatype or language tag).
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from repro.rdf.terms import (
    BNode, IRI, Literal, Term, Triple, XSD_STRING, _unescape,
)


class NTriplesError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement;
    carries the 1-based ``line`` when the raiser knows it."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line


_IRI_RE = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_BNODE_RE = r"_:([A-Za-z0-9_.]+)"
_LITERAL_RE = r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>]*)>|@([A-Za-z0-9-]+))?'
_TERM_RE = f"(?:{_IRI_RE}|{_BNODE_RE}|{_LITERAL_RE})"
_LINE_RE = re.compile(
    rf"^\s*{_TERM_RE}\s+{_TERM_RE}\s+{_TERM_RE}\s*\.\s*(?:#.*)?$"
)


def term_from_groups(groups: Sequence[Optional[str]]) -> Term:
    """The term one slot's five regex groups spell."""
    iri, bnode, lex, datatype, lang = groups
    if iri is not None:
        return IRI(iri)
    if bnode is not None:
        return BNode(bnode)
    lexical = _unescape(lex)
    if lang:
        return Literal(lexical, XSD_STRING, lang)
    return Literal(lexical, datatype or XSD_STRING)


def _slots(line: str) -> Tuple[tuple, tuple, tuple]:
    """One statement line as the regex groups of its three slots, five
    each, kind-checked before any term is built from them."""
    match = _LINE_RE.match(line)
    if match is None:
        raise NTriplesError(f"not an N-Triples statement: {line!r}")
    groups = match.groups()
    if groups[5] is None:
        raise NTriplesError(f"predicate must be an IRI: {line!r}")
    if groups[2] is not None:
        raise NTriplesError(f"subject cannot be a literal: {line!r}")
    return groups[0:5], groups[5:10], groups[10:15]


def parse_line(line: str) -> Triple:
    """Parse one N-Triples statement line into a triple."""
    return tuple(map(term_from_groups, _slots(line)))


def scan_lines(lines: Iterable[str], strict: bool = True,
               on_skip: Optional[Callable[[int, str], None]] = None,
               ) -> Iterator[Tuple[int, Tuple[tuple, tuple, tuple]]]:
    """Stream ``(line_number, slots)`` pairs from an iterable of lines,
    a slot being the five regex groups :func:`term_from_groups` reads.

    The streaming core shared by :func:`parse_lines` and the bulk loader
    (:mod:`repro.rdf.bulkload`, which builds a term once per distinct
    slot, not three per line): it consumes any line iterable — an open
    file handle included — one line at a time, so a document never
    needs to be materialized in memory.  Line numbers are 1-based and
    count *every* input line (blank and comment lines too), so a
    reported position matches the file.

    ``strict=True`` (the default) re-raises the first malformed line as
    an :class:`NTriplesError` carrying the line number; ``strict=False``
    skips malformed lines, reporting each to ``on_skip(line_no,
    message)`` when given.
    """
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield line_no, _slots(line)
        except NTriplesError as exc:
            if strict:
                raise NTriplesError(f"line {line_no}: {exc}",
                                    line=line_no) from exc
            if on_skip is not None:
                on_skip(line_no, str(exc))


def parse_lines(lines: Iterable[str], strict: bool = True,
                on_skip: Optional[Callable[[int, str], None]] = None,
                ) -> Iterator[Tuple[int, Triple]]:
    """Stream ``(line_number, triple)`` pairs: :func:`scan_lines` (same
    line numbering, ``strict`` and ``on_skip``) with every term built."""
    for line_no, slots in scan_lines(lines, strict, on_skip):
        yield line_no, tuple(map(term_from_groups, slots))


def parse(text: str) -> Iterator[Triple]:
    """Parse an N-Triples document, yielding triples."""
    for _, parsed in parse_lines(text.splitlines()):
        yield parsed


def serialize(triples: Iterable[Triple]) -> str:
    """Serialize triples as canonical (sorted) N-Triples text."""
    lines = sorted(
        f"{s.n3()} {p.n3()} {o.n3()} ." for s, p, o in triples
    )
    return "\n".join(lines) + ("\n" if lines else "")
