"""A Turtle parser and serializer (practical subset).

Supports the Turtle features the bundled datasets and examples use:

* ``@prefix`` / ``@base`` directives (and SPARQL-style ``PREFIX``/``BASE``);
* prefixed names and absolute IRIs;
* ``a`` as shorthand for ``rdf:type``;
* predicate lists (``;``) and object lists (``,``);
* blank node labels (``_:b``) and anonymous blank nodes (``[...]``);
* plain, language-tagged, and datatyped string literals (with ``'``/``"``
  and their long forms);
* numeric shorthand (integers, decimals, doubles) and booleans.

Collections (``( ... )``) are intentionally unsupported; the parser
raises a clear error if it encounters one.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, WELL_KNOWN_PREFIXES
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)


class TurtleError(ValueError):
    """Raised on malformed Turtle input, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("LONG_STRING", r'"""(?:[^"\\]|\\.|"(?!""))*"""' + r"|'''(?:[^'\\]|\\.|'(?!''))*'''"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"' + r"|'(?:[^'\\\n]|\\.)*'"),
    ("IRIREF", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("PREFIX_DIR", r"@prefix\b|@base\b"),
    ("SPARQL_DIR", r"(?i:PREFIX|BASE)(?=[ \t])"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("BOOLEAN", r"\b(?:true|false)\b"),
    ("BNODE", r"_:[A-Za-z0-9_][A-Za-z0-9_.-]*"),
    ("LANGTAG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("DTYPE", r"\^\^"),
    ("PNAME", r"[A-Za-z_][A-Za-z0-9_.-]*?:[A-Za-z0-9_][A-Za-z0-9_.%-]*|[A-Za-z_][A-Za-z0-9_.-]*?:"),
    ("A", r"\ba\b"),
    ("PUNCT", r"[;,.\[\]()]"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))

_UNESCAPE_RE = re.compile(r'\\[\\"\'nrtbf]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}')
_UNESCAPES = {
    "\\\\": "\\",
    '\\"': '"',
    "\\'": "'",
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
    "\\b": "\b",
    "\\f": "\f",
}


def _unescape(text: str) -> str:
    def repl(m: re.Match) -> str:
        token = m.group(0)
        if token in _UNESCAPES:
            return _UNESCAPES[token]
        return chr(int(token[2:], 16))

    return _UNESCAPE_RE.sub(repl, text)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TurtleError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group(0)
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = m.end()
    return tokens


class TurtleParser:
    """Recursive-descent parser producing triples from Turtle text."""

    def __init__(self, text: str, base: str = ""):
        self._tokens = _tokenize(text)
        self._pos = 0
        self._base = base
        self._prefixes: Dict[str, str] = {}
        self._triples: List[Tuple[Term, IRI, Term]] = []
        self._bnode_count = 0

    # -- token stream helpers ------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            last = self._tokens[-1] if self._tokens else _Token("EOF", "", 1, 1)
            raise TurtleError("unexpected end of input", last.line, last.column)
        self._pos += 1
        return token

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind != "PUNCT" or token.text != char:
            raise TurtleError(
                f"expected {char!r}, got {token.text!r}", token.line, token.column
            )

    def _error(self, message: str, token: _Token) -> None:
        raise TurtleError(message, token.line, token.column)

    # -- parsing --------------------------------------------------------
    def parse(self) -> List[Tuple[Term, IRI, Term]]:
        while self._peek() is not None:
            token = self._peek()
            if token.kind == "PREFIX_DIR":
                self._directive(at_form=True)
            elif token.kind == "SPARQL_DIR":
                self._directive(at_form=False)
            else:
                self._triples_block()
        return self._triples

    def _directive(self, at_form: bool) -> None:
        token = self._next()
        keyword = token.text.lstrip("@").lower()
        if keyword == "prefix":
            name_token = self._next()
            if name_token.kind != "PNAME" or not name_token.text.endswith(":"):
                self._error("expected prefix name", name_token)
            iri_token = self._next()
            if iri_token.kind != "IRIREF":
                self._error("expected IRI after prefix name", iri_token)
            self._prefixes[name_token.text[:-1]] = self._resolve(iri_token.text[1:-1])
        else:  # base
            iri_token = self._next()
            if iri_token.kind != "IRIREF":
                self._error("expected IRI after @base", iri_token)
            self._base = self._resolve(iri_token.text[1:-1])
        if at_form:
            self._expect_punct(".")

    def _resolve(self, iri: str) -> str:
        if self._base and "://" not in iri and not iri.startswith("urn:"):
            return self._base + iri
        return iri

    def _triples_block(self) -> None:
        subject = self._subject()
        self._predicate_object_list(subject)
        self._expect_punct(".")

    def _subject(self) -> Term:
        token = self._peek()
        if token.kind == "PUNCT" and token.text == "[":
            return self._anon_bnode()
        term = self._term()
        if isinstance(term, Literal):
            self._error("literal cannot be a subject", token)
        return term

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._predicate()
            while True:
                obj = self._object()
                self._triples.append((subject, predicate, obj))
                token = self._peek()
                if token is not None and token.kind == "PUNCT" and token.text == ",":
                    self._next()
                    continue
                break
            token = self._peek()
            if token is not None and token.kind == "PUNCT" and token.text == ";":
                self._next()
                nxt = self._peek()
                # allow a trailing ';' before '.' or ']'
                if nxt is not None and nxt.kind == "PUNCT" and nxt.text in ".]":
                    return
                continue
            return

    def _predicate(self) -> IRI:
        token = self._next()
        if token.kind == "A":
            return RDF.type
        if token.kind == "IRIREF":
            return IRI(self._resolve(token.text[1:-1]))
        if token.kind == "PNAME":
            return self._pname(token)
        self._error(f"expected a predicate, got {token.text!r}", token)

    def _object(self) -> Term:
        token = self._peek()
        if token.kind == "PUNCT" and token.text == "[":
            return self._anon_bnode()
        if token.kind == "PUNCT" and token.text == "(":
            self._error("RDF collections are not supported by this parser", token)
        return self._term()

    def _anon_bnode(self) -> BNode:
        self._expect_punct("[")
        self._bnode_count += 1
        node = BNode(f"anon{self._bnode_count}")
        token = self._peek()
        if not (token.kind == "PUNCT" and token.text == "]"):
            self._predicate_object_list(node)
        self._expect_punct("]")
        return node

    def _term(self) -> Term:
        token = self._next()
        if token.kind == "IRIREF":
            return IRI(self._resolve(token.text[1:-1]))
        if token.kind == "PNAME":
            return self._pname(token)
        if token.kind == "BNODE":
            return BNode(token.text[2:])
        if token.kind in ("STRING", "LONG_STRING"):
            return self._literal(token)
        if token.kind == "INTEGER":
            return Literal(token.text, XSD_INTEGER)
        if token.kind == "DECIMAL":
            return Literal(token.text, XSD_DECIMAL)
        if token.kind == "DOUBLE":
            return Literal(token.text, XSD_DOUBLE)
        if token.kind == "BOOLEAN":
            return Literal(token.text, XSD_BOOLEAN)
        self._error(f"expected an RDF term, got {token.text!r}", token)

    def _literal(self, token: _Token) -> Literal:
        text = token.text
        if token.kind == "LONG_STRING":
            lexical = _unescape(text[3:-3])
        else:
            lexical = _unescape(text[1:-1])
        nxt = self._peek()
        if nxt is not None and nxt.kind == "LANGTAG":
            self._next()
            return Literal(lexical, XSD_STRING, nxt.text[1:])
        if nxt is not None and nxt.kind == "DTYPE":
            self._next()
            dt_token = self._next()
            if dt_token.kind == "IRIREF":
                datatype = self._resolve(dt_token.text[1:-1])
            elif dt_token.kind == "PNAME":
                datatype = self._pname(dt_token).value
            else:
                self._error("expected datatype IRI after ^^", dt_token)
            return Literal(lexical, datatype)
        return Literal(lexical, XSD_STRING)

    def _pname(self, token: _Token) -> IRI:
        prefix, _, local = token.text.partition(":")
        namespaces = {**WELL_KNOWN_PREFIXES, **self._prefixes}
        if prefix not in namespaces:
            self._error(f"undefined prefix {prefix!r}", token)
        return IRI(namespaces[prefix] + local)


def parse(text: str, graph: Optional[Graph] = None, base: str = "") -> Graph:
    """Parse Turtle text into ``graph`` (a new one by default)."""
    if graph is None:
        graph = Graph()
    graph.add_all(TurtleParser(text, base).parse())
    return graph


def parse_file(path: str, graph: Optional[Graph] = None) -> Graph:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read(), graph)


def serialize(graph: Graph, prefixes: Optional[Dict[str, str]] = None) -> str:
    """Serialize a graph as Turtle, grouping by subject and predicate."""
    prefixes = dict(prefixes or WELL_KNOWN_PREFIXES)
    lines = [f"@prefix {name}: <{base}> ." for name, base in sorted(prefixes.items())]
    lines.append("")

    def shorten(term: Term) -> str:
        if isinstance(term, IRI):
            if term == RDF.type:
                return "a"
            for name, base in prefixes.items():
                if term.value.startswith(base):
                    local = term.value[len(base):]
                    if re.fullmatch(r"[A-Za-z0-9_.-]+", local or ""):
                        return f"{name}:{local}"
            return term.n3()
        if isinstance(term, Literal) and term.datatype != XSD_STRING and not term.language:
            for name, base in prefixes.items():
                if term.datatype.startswith(base):
                    local = term.datatype[len(base):]
                    lex = term.n3().split("^^")[0]
                    return f"{lex}^^{name}:{local}"
        return term.n3()

    for subject in sorted(graph.all_subjects(), key=lambda t: t.sort_key()):
        predicate_parts = []
        for predicate in sorted(graph.predicates(subject, None), key=lambda t: t.sort_key()):
            objs = sorted(graph.objects(subject, predicate), key=lambda t: t.sort_key())
            rendered = ", ".join(shorten(o) for o in objs)
            predicate_parts.append(f"{shorten(predicate)} {rendered}")
        body = " ;\n    ".join(predicate_parts)
        lines.append(f"{shorten(subject)} {body} .")
    return "\n".join(lines) + "\n"
