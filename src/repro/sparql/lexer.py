"""Tokenizer for the SPARQL subset, and for Turtle.

Produces a flat list of :class:`Token` objects.  Keywords are recognized
case-insensitively at the parser level (the lexer emits them as ``NAME``
tokens); this keeps the lexer simple and lets prefixed names reuse the
same machinery.  Turtle's ``@prefix`` / ``@base`` come out as ``LANGTAG``
tokens, which :class:`repro.rdf.turtle.TurtleParser` reads as directives.
"""

from __future__ import annotations

import re
from typing import List

from repro.sparql.errors import SparqlParseError

_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("STRING", r'"""(?:[^"\\]|\\.|"(?!""))*"""'
               r"|'''(?:[^'\\]|\\.|'(?!''))*'''"
               r'|"(?:[^"\\\n]|\\.)*"'
               r"|'(?:[^'\\\n]|\\.)*'"),
    ("IRIREF", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z0-9_]*"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("BNODE", r"_:[A-Za-z0-9_][A-Za-z0-9_.-]*"),
    ("LANGTAG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("DTYPE", r"\^\^"),
    ("PNAME", r"[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z0-9_][A-Za-z0-9_.%-]*"
              r"|[A-Za-z_][A-Za-z0-9_.-]*:"),
    ("NAME", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"&&|\|\||!=|<=|>=|[=<>!+\-*/^|?]"),
    ("PUNCT", r"[{}().;,\[\]]"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def is_name(self, *names: str) -> bool:
        """True if this is a NAME token equal (case-insensitively) to any name."""
        return self.kind == "NAME" and self.text.upper() in names

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str) -> List[Token]:
    """Tokenize SPARQL text; raises :class:`SparqlParseError` on bad input."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SparqlParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group(0)
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = m.end()
    return tokens
