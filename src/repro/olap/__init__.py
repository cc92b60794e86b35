"""OLAP operators over HIFUN answers (Chapter 7).

The dissertation shows (§7.2, Figs 7.1/7.2) that the interaction model
covers the classical OLAP operations; this package makes the mapping
executable:

* :class:`repro.olap.cube.Cube` — a data-cube view over an analysis
  context: dimensions (attribute paths, optionally with hierarchies),
  one measure, one aggregate operation;
* :mod:`repro.olap.ops` — ``roll_up``, ``drill_down``, ``slice_``,
  ``dice``, ``pivot``, each returning a new cube/result and the HIFUN
  query it corresponds to.
"""

from repro.olap.cube import Cube, Dimension, Hierarchy
from repro.olap.ops import drill_down, dice, pivot, roll_up, slice_

__all__ = [
    "Cube",
    "Dimension",
    "Hierarchy",
    "roll_up",
    "drill_down",
    "slice_",
    "dice",
    "pivot",
]
