"""Streaming bulk loading of serialized RDF into (sharded) stores.

The scale-out data plane needs to *get* to millions of triples before
it can scan them, and reading a whole serialization into one string —
then a whole triple list — before the first ``add`` doubles or triples
peak memory for no benefit.  This module feeds a store directly from
the input stream:

* **N-Triples** is line-oriented, so :func:`load_ntriples` iterates the
  open file handle and adds each statement as it parses — the only
  buffered state is one line, plus a memo from each distinct token's
  text to its dictionary id, so a term is built, hashed and interned
  once per load, not once per occurrence.  Malformed lines are reported
  with their 1-based line number; ``strict=False`` skips them
  (collecting the skips in the :class:`LoadReport`) instead of raising.
* **Turtle** has document-level state (prefixes, multi-statement
  grammar), so :func:`load_turtle` reads the document whole, parses it
  into one triple list and adds that to the target graph — no second
  graph is built.

Every loader takes an optional target ``graph``; by default it builds a
:class:`~repro.rdf.sharding.ShardedGraph` when ``shards > 1`` and a
plain :class:`~repro.rdf.graph.Graph` otherwise, so bulk load feeds the
partitioned store directly — triples route to their owning shard at
add time, never touching a flat intermediate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO, Iterable, List, Optional, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.ntriples import NTriplesError, scan_lines, term_from_groups
from repro.rdf.sharding import ShardedGraph
from repro.rdf.turtle import TurtleError, TurtleParser

#: File suffixes understood by :func:`load_file`.
_NTRIPLES_SUFFIXES = (".nt", ".ntriples")
_TURTLE_SUFFIXES = (".ttl", ".turtle")


class BulkLoadError(ValueError):
    """Raised on unloadable input (bad syntax in strict mode, unknown
    format); carries the 1-based ``line`` when one is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line


@dataclass
class LoadReport:
    """What one bulk load did: statements seen, triples added (duplicate
    statements add nothing), and the malformed lines skipped in
    non-strict mode as ``(line_number, message)`` pairs."""

    statements: int = 0
    triples_added: int = 0
    skipped: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.skipped

    def __repr__(self):
        return (f"<LoadReport {self.statements} statements, "
                f"{self.triples_added} added, {len(self.skipped)} skipped>")


def _target_graph(graph: Optional[Graph], shards: int) -> Graph:
    if graph is not None:
        return graph
    if shards > 1:
        return ShardedGraph(shards=shards)
    return Graph()


def load_ntriples(
    source: Union[str, os.PathLike, IO[str], Iterable[str]],
    graph: Optional[Graph] = None,
    strict: bool = True,
    shards: int = 1,
) -> Tuple[Graph, LoadReport]:
    """Stream an N-Triples document into a store, line by line.

    ``source`` is a file path, an open text handle, or any iterable of
    lines.  Returns ``(graph, report)``.  In strict mode the first
    malformed line raises :class:`BulkLoadError` with its line number
    (the graph keeps the statements already added — bulk load is not
    transactional); otherwise malformed lines are skipped and recorded
    (a skipped line interns no term: its kinds are checked first).
    """
    target = _target_graph(graph, shards)
    report = LoadReport()
    own_handle = isinstance(source, (str, os.PathLike))
    handle: Iterable[str] = (
        open(source, "r", encoding="utf-8") if own_handle else source)
    try:
        add_ids, encode = target._add_ids, target.dictionary.encode

        class SlotIds(dict):
            """The per-load memo: a slot's five regex groups (``<a>``,
            ``_:a``, ``"a"`` and ``"a"@en`` are four keys) → the id of
            the term they spell, built and interned on first sight only.
            Tuples of strings to ints: nothing the cyclic collector
            keeps tracking while the load fills the heap."""

            def __missing__(self, slot: tuple) -> int:
                ident = self[slot] = encode(term_from_groups(slot))
                return ident

        ids = SlotIds()
        stream = scan_lines(
            handle, strict=strict,
            on_skip=lambda line_no, message:
                report.skipped.append((line_no, message)),
        )
        try:
            for _, (s, p, o) in stream:
                report.statements += 1
                if add_ids(ids[s], ids[p], ids[o]):
                    report.triples_added += 1
        except NTriplesError as exc:
            raise BulkLoadError(str(exc), line=exc.line) from exc
    finally:
        if own_handle:
            handle.close()
    return target, report


def load_turtle(
    source: Union[str, os.PathLike],
    graph: Optional[Graph] = None,
    shards: int = 1,
) -> Tuple[Graph, LoadReport]:
    """Load a Turtle document into a store.

    Turtle's grammar is document-scoped (prefix directives, ``;``/``,``
    continuation), so the text is read and parsed whole; the parsed
    statements are then added straight to the target graph (no staging
    graph), a sharded target routing each to its owning slice.  Bad
    syntax raises :class:`BulkLoadError` with its line number, and
    nothing is added.
    """
    target = _target_graph(graph, shards)
    with open(source, encoding="utf-8") as handle:
        text = handle.read()
    try:
        statements = TurtleParser(text).parse()
    except TurtleError as exc:
        raise BulkLoadError(str(exc), line=exc.line) from exc
    return target, LoadReport(statements=len(statements),
                              triples_added=target.add_all(statements))


def load_file(
    path: Union[str, os.PathLike],
    graph: Optional[Graph] = None,
    strict: bool = True,
    shards: int = 1,
) -> Tuple[Graph, LoadReport]:
    """Load a file by suffix: ``.nt`` streams, ``.ttl`` parses whole."""
    name = os.fspath(path).lower()
    if name.endswith(_NTRIPLES_SUFFIXES):
        return load_ntriples(path, graph=graph, strict=strict, shards=shards)
    if name.endswith(_TURTLE_SUFFIXES):
        return load_turtle(path, graph=graph, shards=shards)
    raise BulkLoadError(
        f"cannot infer RDF format from {name!r} "
        f"(expected one of {_NTRIPLES_SUFFIXES + _TURTLE_SUFFIXES})")


__all__ = [
    "BulkLoadError",
    "LoadReport",
    "load_file",
    "load_ntriples",
    "load_turtle",
]
