"""Structured diagnostics for the static analyzers.

Every finding of the HIFUN checker, the SPARQL linter and the
translation-consistency check is a :class:`Diagnostic` with

* a **stable code** — ``H0xx`` for HIFUN-level findings, ``S0xx`` for
  SPARQL-level findings, ``C0xx`` for cross-layer consistency findings
  (the executable shadow of Propositions 1–2);
* a **severity** — :data:`Severity.ERROR` findings make strict mode
  raise; warnings and notes are reported but never block execution;
* a **source locator** — a dotted ``path`` into the query structure
  (e.g. ``grouping[1].step[0]`` or ``where.children[2]``) plus, when
  the analyzed artifact is SPARQL *text*, a 1-based line/column.

Diagnostics are frozen and hash/compare structurally so test suites can
assert on exact findings; :class:`AnalysisReport` is the ordered
collection every checker returns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so ``max()`` picks the worst."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analysis pass."""

    #: Stable machine-readable code (``H001``, ``S003``, ``C001``, ...).
    code: str
    severity: Severity
    #: Human-readable, single-sentence description of the defect.
    message: str
    #: Dotted locator into the analyzed structure ("" when global).
    path: str = ""
    #: 1-based source position when the artifact was parsed from text;
    #: 0 means "no position available".
    line: int = 0
    column: int = 0
    #: Optional remediation hint shown by the CLI.
    hint: str = ""

    def __str__(self) -> str:
        where = f" at {self.path}" if self.path else ""
        pos = f" (line {self.line}, column {self.column})" if self.line else ""
        return f"{self.code} {self.severity}: {self.message}{where}{pos}"


@dataclass(frozen=True)
class AnalysisReport:
    """The ordered diagnostics of one analysis pass."""

    diagnostics: Tuple[Diagnostic, ...] = ()

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostic was found."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when no diagnostic at all was found."""
        return not self.diagnostics

    def codes(self) -> Tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def merged(self, other: "AnalysisReport") -> "AnalysisReport":
        return AnalysisReport(self.diagnostics + other.diagnostics)

    def render(self) -> str:
        """Multi-line human-readable listing (the CLI's output)."""
        if not self.diagnostics:
            return "no issues found"
        lines = []
        for diagnostic in self.diagnostics:
            lines.append(str(diagnostic))
            if diagnostic.hint:
                lines.append(f"    hint: {diagnostic.hint}")
        return "\n".join(lines)

    def raise_if_errors(self) -> "AnalysisReport":
        """Raise :class:`StaticAnalysisError` when errors are present;
        returns ``self`` otherwise so calls chain."""
        if self.errors:
            raise StaticAnalysisError(self)
        return self


class StaticAnalysisError(ValueError):
    """Raised by strict mode when an analysis pass reports errors.

    Carries the full :class:`AnalysisReport`, so callers can render or
    filter the findings programmatically.
    """

    def __init__(self, report: AnalysisReport):
        self.report = report
        errors = report.errors
        summary = "; ".join(str(d) for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... ({len(errors)} errors total)"
        super().__init__(f"static analysis failed: {summary}")


class _Collector:
    """Mutable builder used internally by the checkers."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list = []

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        path: str = "",
        line: int = 0,
        column: int = 0,
        hint: str = "",
    ) -> None:
        self._items.append(
            Diagnostic(code, severity, message, path, line, column, hint)
        )

    def error(self, code: str, message: str, **kw: object) -> None:
        self.add(code, Severity.ERROR, message, **kw)  # type: ignore[arg-type]

    def warning(self, code: str, message: str, **kw: object) -> None:
        self.add(code, Severity.WARNING, message, **kw)  # type: ignore[arg-type]

    def report(self) -> AnalysisReport:
        return AnalysisReport(tuple(self._items))
