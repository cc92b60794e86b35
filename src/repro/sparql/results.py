"""Result representations of SPARQL queries.

A :class:`SelectResult` is an ordered sequence of :class:`Row` objects
plus the projected variable names.  Rows behave like read-only mappings
from variable name (without ``?``) to :class:`repro.rdf.terms.Term`;
unbound variables are absent.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term


class Row:
    """One solution mapping, keyed by variable name (no ``?`` prefix)."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Dict[str, Term]):
        self._bindings = bindings

    def __getitem__(self, name: str) -> Term:
        return self._bindings[name.lstrip("?")]

    def get(self, name: str, default: Optional[Term] = None) -> Optional[Term]:
        return self._bindings.get(name.lstrip("?"), default)

    def value(self, name: str, default: Any = None) -> Any:
        """The native Python value of a bound literal (or the term itself)."""
        term = self.get(name)
        if term is None:
            return default
        to_python = getattr(term, "to_python", None)
        return to_python() if to_python else term

    def __contains__(self, name: str) -> bool:
        return name.lstrip("?") in self._bindings

    def keys(self):
        return self._bindings.keys()

    def items(self):
        return self._bindings.items()

    def __eq__(self, other):
        if isinstance(other, Row):
            return self._bindings == other._bindings
        if isinstance(other, dict):
            return self._bindings == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._bindings.items()))

    def __len__(self):
        return len(self._bindings)

    def __repr__(self):
        inner = ", ".join(f"?{k}={v!r}" for k, v in sorted(self._bindings.items()))
        return f"Row({inner})"


class SelectResult:
    """The answer of a SELECT query: projected variables plus rows."""

    def __init__(self, variables: Sequence[str], rows: List[Row]):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.rows = rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def column(self, name: str) -> List[Optional[Term]]:
        return [row.get(name) for row in self.rows]

    def sorted_rows(self) -> List[Row]:
        """Rows in a deterministic order (for comparisons in tests)."""

        def key(row: Row) -> Tuple[tuple, ...]:
            return tuple(
                (term.sort_key() if (term := row.get(v)) is not None else (-1,))
                for v in self.variables
            )

        return sorted(self.rows, key=key)

    def __repr__(self):
        return f"<SelectResult vars={list(self.variables)} rows={len(self.rows)}>"
