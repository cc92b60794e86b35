"""A Turtle parser and serializer (practical subset).

The reader is the SPARQL parser's (:mod:`repro.sparql.parser`): one
tokenizer, one term grammar and one string-escape decoder read both
languages, since SPARQL writes its triple patterns in Turtle.  What it
accepts:

* ``@prefix`` / ``@base`` directives (and SPARQL-style ``PREFIX``/``BASE``),
  their IRIs resolved against the base in force;
* prefixed names and IRIs, a relative IRI resolved against the base;
* ``a`` as shorthand for ``rdf:type``;
* predicate lists (``;``) and object lists (``,``);
* blank node labels (``_:b``) and anonymous blank nodes (``[...]``,
  labelled ``q1``, ``q2``, ... in document order, passing over every
  label the document writes, so an anonymous node never merges with a
  labelled one);
* plain, language-tagged, and datatyped string literals (with ``'``/``"``
  and their long forms);
* numeric shorthand (integers, decimals, doubles) and booleans.

:class:`TurtleParser` refuses what SPARQL's triples grammar allows and
Turtle does not (variables, a property path in the predicate slot) and
collections (``( ... )``), which are intentionally unsupported.  Every
malformed input raises :class:`TurtleError`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, WELL_KNOWN_PREFIXES
from repro.rdf.terms import BNode, IRI, Literal, Term, XSD_STRING
from repro.sparql import ast
from repro.sparql.errors import SparqlParseError
from repro.sparql.parser import _Parser


class TurtleError(ValueError):
    """Raised on malformed Turtle input, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@contextmanager
def _turtle_errors() -> Iterator[None]:
    """Re-raise the shared grammar's positioned errors as TurtleError."""
    try:
        yield
    except SparqlParseError as exc:
        raise TurtleError(exc.message, exc.line, exc.column) from exc


class TurtleParser(_Parser):
    """Turtle's document grammar over the SPARQL parser's triples: a
    statement is a ``TriplesSameSubject`` ended by ``.``, between
    ``@prefix`` / ``@base`` directives (ended by ``.``; the lexer reads
    them as ``LANGTAG`` tokens) and ``PREFIX`` / ``BASE`` ones."""

    def __init__(self, text: str, base: str = ""):
        with _turtle_errors():
            super().__init__(text)
        self._base = base

    def parse(self) -> List[Tuple[Term, IRI, Term]]:
        triples: List[Tuple[Term, IRI, Term]] = []
        with _turtle_errors():
            while self._peek() is not None:
                token = self._peek()
                if token.kind == "LANGTAG" and token.text in ("@prefix", "@base"):
                    self._next()
                    self._declaration(token.text[1:].upper())
                    self._eat_punct(".")
                elif token.is_name("PREFIX", "BASE"):
                    self._prologue()
                else:
                    triples.extend(self._triples_same_subject())
                    self._eat_punct(".")
        return triples

    # -- Turtle's refusals of what SPARQL's triples grammar allows ---------
    def _term_slot(self) -> Term:
        if self._at_punct("("):
            raise self._error("RDF collections are not supported by this parser")
        token = self._peek()
        if token is not None and token.kind == "VAR":
            raise self._error("variables are not allowed in Turtle")
        return super()._term_slot()

    def _path(self) -> IRI:
        token = self._peek()
        path = super()._path()
        if isinstance(path, ast.PredicatePath) and not path.inverse:
            return path.predicate
        raise SparqlParseError(
            "expected a predicate IRI, not a variable or property path",
            token.line, token.column)

    def _blank_node(self, label: str) -> BNode:
        return BNode(label)

    @staticmethod
    def _make_pattern(subject: Term, predicate: IRI,
                      obj: Term) -> Tuple[Term, IRI, Term]:
        return (subject, predicate, obj)


def parse(text: str, graph: Optional[Graph] = None, base: str = "") -> Graph:
    """Parse Turtle text into ``graph`` (a new one by default)."""
    if graph is None:
        graph = Graph()
    graph.add_all(TurtleParser(text, base).parse())
    return graph


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
