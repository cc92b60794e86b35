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

from typing import Mapping, Sequence, Tuple, Union

from repro.rdf.terms import Term
from repro.hifun.query import Restriction
from repro.olap.cube import Cube


def roll_up(cube: Cube, dimension: str) -> Cube:
    """Move ``dimension`` one level coarser (Fig. 7.2, e.g. month → year)."""
    dim = cube.dimensions[dimension]
    if dim.hierarchy is None:
        raise ValueError(f"dimension {dimension!r} has no hierarchy to roll up")
    current = cube.levels[dimension]
    coarser = dim.hierarchy.coarser(current)
    if coarser is None:
        raise ValueError(
            f"dimension {dimension!r} is already at its coarsest level ({current})"
        )
    levels = dict(cube.levels)
    levels[dimension] = coarser
    return cube._replace(levels=levels)


def drill_down(cube: Cube, dimension: str) -> Cube:
    """Move ``dimension`` one level finer (the inverse of roll-up)."""
    dim = cube.dimensions[dimension]
    if dim.hierarchy is None:
        raise ValueError(f"dimension {dimension!r} has no hierarchy to drill into")
    current = cube.levels[dimension]
    finer = dim.hierarchy.finer(current)
    if finer is None:
        raise ValueError(
            f"dimension {dimension!r} is already at its finest level ({current})"
        )
    levels = dict(cube.levels)
    levels[dimension] = finer
    return cube._replace(levels=levels)


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
