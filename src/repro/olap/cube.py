"""A data-cube view over an RDF analysis context (Chapter 7).

A :class:`Cube` fixes a root class, a set of :class:`Dimension` objects
and a measure.  Each dimension is an attribute path plus an optional
:class:`Hierarchy` — an ordered list of levels from finest to coarsest,
each level being an attribute expression (e.g. ``date < month∘date <
year∘date``, or ``branch < city∘locatedIn ...``).  Evaluating the cube
at a tuple of levels issues the corresponding HIFUN query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.hifun.attributes import AttributeExpr, pair
from repro.hifun.evaluator import AnswerFunction, evaluate_hifun
from repro.hifun.query import HifunQuery, Restriction


@dataclass(frozen=True)
class Hierarchy:
    """Ordered aggregation levels of a dimension, finest first.

    ``levels[i]`` is the attribute expression at level ``i``; roll-up
    moves to higher indices (coarser), drill-down to lower (finer).
    """

    name: str
    levels: Tuple[Tuple[str, AttributeExpr], ...]

    def level_index(self, level_name: str) -> int:
        for index, (name, _) in enumerate(self.levels):
            if name == level_name:
                return index
        raise KeyError(f"unknown level {level_name!r} in hierarchy {self.name}")

    def attribute(self, level_name: str) -> AttributeExpr:
        return self.levels[self.level_index(level_name)][1]

    def coarser(self, level_name: str) -> Optional[str]:
        index = self.level_index(level_name)
        if index + 1 < len(self.levels):
            return self.levels[index + 1][0]
        return None

    def finer(self, level_name: str) -> Optional[str]:
        index = self.level_index(level_name)
        if index > 0:
            return self.levels[index - 1][0]
        return None


@dataclass(frozen=True)
class Dimension:
    """A cube dimension: either a flat attribute or a hierarchy."""

    name: str
    attribute: Optional[AttributeExpr] = None
    hierarchy: Optional[Hierarchy] = None

    def __post_init__(self):
        if (self.attribute is None) == (self.hierarchy is None):
            raise ValueError(
                "a dimension takes exactly one of attribute / hierarchy"
            )

    def attribute_at(self, level: Optional[str]) -> AttributeExpr:
        if self.hierarchy is None:
            if level is not None:
                raise ValueError(f"dimension {self.name} has no levels")
            return self.attribute
        if level is None:
            level = self.hierarchy.levels[0][0]
        return self.hierarchy.attribute(level)

    def default_level(self) -> Optional[str]:
        if self.hierarchy is None:
            return None
        return self.hierarchy.levels[0][0]


class Cube:
    """An OLAP cube over an RDF graph.

    ``state`` records the active level of every hierarchical dimension,
    which dimensions are currently grouped, and accumulated slice/dice
    restrictions; the OLAP operators of :mod:`repro.olap.ops` produce new
    cubes with updated state.
    """

    def __init__(
        self,
        graph: Graph,
        root_class: IRI,
        dimensions: Sequence[Dimension],
        measure: AttributeExpr,
        operation: str = "SUM",
        active: Optional[Sequence[str]] = None,
        levels: Optional[Dict[str, Optional[str]]] = None,
        restrictions: Tuple[Restriction, ...] = (),
    ):
        self.graph = graph
        self.root_class = root_class
        self.dimensions = {d.name: d for d in dimensions}
        if len(self.dimensions) != len(dimensions):
            raise ValueError("dimension names must be unique")
        self.measure = measure
        self.operation = operation.upper()
        self.active: Tuple[str, ...] = tuple(
            active if active is not None else (d.name for d in dimensions)
        )
        for name in self.active:
            if name not in self.dimensions:
                raise KeyError(f"unknown dimension {name!r}")
        self.levels: Dict[str, Optional[str]] = {
            d.name: d.default_level() for d in dimensions
        }
        if levels:
            self.levels.update(levels)
        self.restrictions = tuple(restrictions)

    # ------------------------------------------------------------------
    def _replace(self, **overrides) -> "Cube":
        kwargs = dict(
            graph=self.graph,
            root_class=self.root_class,
            dimensions=list(self.dimensions.values()),
            measure=self.measure,
            operation=self.operation,
            active=self.active,
            levels=dict(self.levels),
            restrictions=self.restrictions,
        )
        kwargs.update(overrides)
        return Cube(**kwargs)

    def grouping_expression(self) -> Optional[AttributeExpr]:
        attrs = [
            self.dimensions[name].attribute_at(self.levels[name])
            for name in self.active
        ]
        if not attrs:
            return None
        if len(attrs) == 1:
            return attrs[0]
        return pair(*attrs)

    def query(self) -> HifunQuery:
        """The HIFUN query computing this cube's current view."""
        return HifunQuery(
            grouping=self.grouping_expression(),
            measuring=self.measure,
            operation=self.operation,
            grouping_restrictions=self.restrictions,
        )

    def evaluate(self) -> AnswerFunction:
        return evaluate_hifun(
            self.graph, self.query(), root_class=self.root_class
        )

    def describe(self) -> str:
        dims = ", ".join(
            f"{name}@{self.levels[name]}" if self.levels[name] else name
            for name in self.active
        )
        extra = f" where {len(self.restrictions)} restriction(s)" if self.restrictions else ""
        return f"Cube[{dims}] {self.operation}({self.measure}){extra}"

    def __repr__(self):
        return f"<{self.describe()}>"
