"""2D chart series and terminal charts for answer frames (§5.1).

:func:`chart_series` turns an answer frame into labelled numeric series
(what a browser front-end would hand to a charting library);
:func:`bar_chart` renders one series as a horizontal ASCII bar chart for
the runnable examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.rdf.terms import Literal, Term
from repro.viz.table import term_label

if TYPE_CHECKING:
    from repro.facets.analytics import AnswerFrame


@dataclass(frozen=True)
class ChartSeries:
    """One numeric series: (label, value) points plus the series name."""

    name: str
    points: Tuple[Tuple[str, float], ...]

    def labels(self) -> List[str]:
        return [label for label, _ in self.points]

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def __len__(self):
        return len(self.points)


def _numeric(term: Optional[Term]) -> Optional[float]:
    if isinstance(term, Literal):
        value = term.to_python()
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float, Decimal)):
            return float(value)
    return None


def chart_series(frame: AnswerFrame, label_columns: Optional[Sequence[str]] = None,
                 value_columns: Optional[Sequence[str]] = None) -> List[ChartSeries]:
    """Extract chart series from an answer frame.

    By default the label is the concatenation of the frame's grouping
    columns and one series is produced per aggregate (or count) column
    that holds numbers.
    """
    columns = list(frame.columns)
    if value_columns is None:
        value_columns = []
        for name in [c for _, c in frame.aggregate_columns] + [frame.count_column]:
            values = frame.column(name) if name in columns else ()
            if values and all(_numeric(v) is not None for v in values if v is not None):
                value_columns.append(name)
    if label_columns is None:
        label_columns = [c for c in frame.grouping_columns if c in columns]
    series: List[ChartSeries] = []
    labels = [
        " / ".join(term_label(row[columns.index(c)]) for c in label_columns)
        or str(index + 1)
        for index, row in enumerate(frame.rows)
    ]
    for name in value_columns:
        index = columns.index(name)
        points = []
        for label, row in zip(labels, frame.rows):
            value = _numeric(row[index])
            if value is not None:
                points.append((label, value))
        series.append(ChartSeries(name, tuple(points)))
    return series


def pie_chart(series: ChartSeries) -> List[Tuple[str, float, float]]:
    """Pie-chart slices: (label, value, percentage).  Requires
    non-negative values with a positive total."""
    total = sum(value for _, value in series.points)
    if total <= 0:
        raise ValueError("a pie chart needs a positive value total")
    if any(value < 0 for _, value in series.points):
        raise ValueError("pie slices cannot be negative")
    return [
        (label, value, 100.0 * value / total) for label, value in series.points
    ]


def line_chart(series: ChartSeries) -> List[Tuple[float, float]]:
    """Line-chart points (x, y) for a series whose labels parse as
    numbers (e.g. years or months); sorted by x."""
    points = []
    for label, value in series.points:
        try:
            x = float(label)
        except ValueError as exc:
            raise ValueError(
                f"label {label!r} is not numeric; line charts need an "
                "ordered numeric axis"
            ) from exc
        points.append((x, value))
    return sorted(points)


def bar_chart(series: ChartSeries, width: int = 40) -> str:
    """A horizontal ASCII bar chart of one series."""
    if not series.points:
        return f"{series.name}: (empty)"
    label_width = max(len(label) for label, _ in series.points)
    peak = max(abs(value) for _, value in series.points) or 1.0
    lines = [f"{series.name}:"]
    for label, value in series.points:
        bar = "█" * max(1, round(abs(value) / peak * width))
        lines.append(f"  {label.ljust(label_width)} | {bar} {value:g}")
    return "\n".join(lines)
