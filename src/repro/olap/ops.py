"""The OLAP operators and their HIFUN/faceted-search correspondence
(§7.2, Fig. 7.1).

Per the dissertation:

* **roll-up** — move a dimension to a coarser hierarchy level (replace
  the grouping attribute by a composition climbing the hierarchy);
* **drill-down** — the inverse: a finer level;
* **slice** — fix one dimension to a value and drop it from the
  grouping (an attribute restriction plus removal from the pairing);
* **dice** — restrict several dimensions to value sets, keeping the
  grouping (a sub-cube);
* **pivot** — reorder the grouping attributes (swap rows/columns of the
  answer table).

Each function returns a new :class:`~repro.olap.cube.Cube`; the caller
evaluates it (``cube.evaluate()``) or inspects ``cube.query()`` to see
the corresponding HIFUN query.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.rdf.terms import Term
from repro.hifun.query import Restriction
from repro.olap.cube import Cube, Hierarchy


def roll_up(cube: Cube, dimension: str) -> Cube:
    """Move ``dimension`` one level coarser (Fig. 7.2, e.g. month → year)."""
    return _move(cube, dimension, Hierarchy.coarser, "roll up", "coarsest")


def drill_down(cube: Cube, dimension: str) -> Cube:
    """Move ``dimension`` one level finer (the inverse of roll-up)."""
    return _move(cube, dimension, Hierarchy.finer, "drill into", "finest")


def _move(cube: Cube, dimension: str,
          step: Callable[[Hierarchy, str], Optional[str]],
          action: str, end: str) -> Cube:
    """Move ``dimension`` to the level ``step`` names next to its
    current one; ``action`` and ``end`` word the errors."""
    dim = cube.dimensions[dimension]
    if dim.hierarchy is None:
        raise ValueError(f"dimension {dimension!r} has no hierarchy to {action}")
    current = cube.levels[dimension]
    level = step(dim.hierarchy, current)
    if level is None:
        raise ValueError(
            f"dimension {dimension!r} is already at its {end} level ({current})"
        )
    return cube._replace(levels={**cube.levels, dimension: level})


def slice_(cube: Cube, dimension: str, value: Term) -> Cube:
    """Fix ``dimension`` to ``value`` and remove it from the grouping."""
    dim = cube.dimensions[dimension]
    attribute = dim.attribute_at(cube.levels[dimension])
    restriction = Restriction(attribute, "=", value)
    active = tuple(name for name in cube.active if name != dimension)
    return cube._replace(
        active=active, restrictions=cube.restrictions + (restriction,)
    )


def dice(cube: Cube,
         selections: Mapping[str, Union[Term, Tuple[str, Term]]]) -> Cube:
    """Restrict several dimensions, keeping the grouping (a sub-cube).

    ``selections`` maps dimension name → ``(comparator, value)`` or just
    a Term (meaning equality).
    """
    restrictions = list(cube.restrictions)
    for dimension, selection in selections.items():
        dim = cube.dimensions[dimension]
        attribute = dim.attribute_at(cube.levels[dimension])
        if isinstance(selection, tuple):
            comparator, value = selection
        else:
            comparator, value = "=", selection
        restrictions.append(Restriction(attribute, comparator, value))
    return cube._replace(restrictions=tuple(restrictions))


def pivot(cube: Cube, order: Sequence[str]) -> Cube:
    """Reorder the grouping dimensions (rotate the answer table)."""
    if sorted(order) != sorted(cube.active):
        raise ValueError(
            f"pivot order {order!r} must be a permutation of {cube.active!r}"
        )
    return cube._replace(active=tuple(order))
