"""Tabular rendering of answer frames (the Fig. 6.3a view)."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.rdf.terms import Term, display_name


def term_label(term: Optional[Term]) -> str:
    """A compact display label for a term (IRIs shown by local name)."""
    return "" if term is None else display_name(term)


def render_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[Optional[Term]]],
    max_rows: Optional[int] = None,
) -> str:
    """Render rows of terms as an aligned text table."""
    shown = list(rows[:max_rows] if max_rows is not None else rows)
    cells: List[List[str]] = [[str(c) for c in columns]]
    for row in shown:
        cells.append([term_label(value) for value in row])
    widths = [
        max(len(line[i]) for line in cells) for i in range(len(columns))
    ]
    out: List[str] = []
    header = " | ".join(name.ljust(width) for name, width in zip(cells[0], widths))
    out.append(header)
    out.append("-+-".join("-" * width for width in widths))
    for line in cells[1:]:
        out.append(" | ".join(value.ljust(width) for value, width in zip(line, widths)))
    if max_rows is not None and len(rows) > max_rows:
        out.append(f"... ({len(rows) - max_rows} more rows)")
    return "\n".join(out)
