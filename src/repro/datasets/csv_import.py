"""Importing user statistical data from CSV (dissertation system 1b).

The dissertation's 3D-visualization system *"lets users upload and
visualize their own statistical data ... imported as a .csv file where
the headers correspond to the attributes of analysis and the cells to
the measure"*.  :func:`graph_from_csv` performs that import: each row
becomes a fresh resource typed ``stat:Row``, each header a property,
and each cell a typed literal (numbers and ISO dates are detected), so
the uploaded data is immediately usable by the faceted-analytics
session and the 2D/3D visualizations — exactly like an answer frame
loaded as a new dataset (§5.3.3).
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import re
from typing import Dict, Optional

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, RDF
from repro.rdf.terms import IRI, Literal

#: Namespace of imported statistical data.
STAT = Namespace("http://www.ics.forth.gr/stat#")

#: The class every imported row is typed under.
STAT_ROW = STAT.Row


class CsvImportError(ValueError):
    """Raised on empty or malformed CSV input."""


def _safe_name(header: str, used: Dict[str, int]) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", header.strip())
    cleaned = re.sub(r"_+", "_", cleaned).strip("_") or "column"
    if cleaned[0].isdigit():
        cleaned = "c_" + cleaned
    count = used.get(cleaned, 0)
    used[cleaned] = count + 1
    return cleaned if count == 0 else f"{cleaned}{count + 1}"


def parse_cell(text: str) -> Optional[Literal]:
    """A typed literal for one CSV cell (None for empty cells).

    Detection order: integer, float, ISO date, boolean, plain string.
    """
    stripped = text.strip()
    if not stripped:
        return None
    try:
        return Literal.of(int(stripped))
    except ValueError:
        pass
    try:
        return Literal.of(float(stripped))
    except ValueError:
        pass
    try:
        return Literal.of(_dt.date.fromisoformat(stripped))
    except ValueError:
        pass
    if stripped.lower() in ("true", "false"):
        return Literal.of(stripped.lower() == "true")
    return Literal.of(stripped)


def graph_from_csv(
    text: str,
    delimiter: str = ",",
    row_type: IRI = STAT_ROW,
) -> Graph:
    """Parse CSV text into an RDF graph of ``stat:Row`` resources.

    Returns the graph; the column properties are
    ``STAT.term(<sanitized header>)`` and every row resource is
    ``STAT.term("row<N>")``.  Raises :class:`CsvImportError` on empty
    input or rows wider than the header.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise CsvImportError("the CSV input has no content")
    header, data = rows[0], rows[1:]
    if not data:
        raise CsvImportError("the CSV input has a header but no data rows")
    used: Dict[str, int] = {}
    columns = [STAT.term(_safe_name(h, used)) for h in header]
    graph = Graph()
    for prop in columns:
        graph.add(prop, RDF.type, RDF.Property)
    for index, cells in enumerate(data, start=1):
        if len(cells) > len(columns):
            raise CsvImportError(
                f"row {index} has {len(cells)} cells but the header has "
                f"{len(columns)} columns"
            )
        subject = STAT.term(f"row{index}")
        graph.add(subject, RDF.type, row_type)
        for prop, cell in zip(columns, cells):
            literal = parse_cell(cell)
            if literal is not None:
                graph.add(subject, prop, literal)
    return graph


def column_property(header: str) -> IRI:
    """The property an (unambiguous) header is imported under."""
    return STAT.term(_safe_name(header, {}))
