"""The 3D "urban area" metaphor of §6.3.

Each analytic group is a multi-storey cube placed on a grid: the cube's
segments correspond to the measured features, and each segment's volume
is proportional to the feature's value.  The front-end draws the scene;
this module computes the scene description (positions, segment heights)
exactly as the dissertation's 3D visualization systems do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.facets.analytics import AnswerFrame


@dataclass(frozen=True)
class Segment:
    """One storey of a building: a feature and its (scaled) height."""

    feature: str
    value: float
    height: float


@dataclass(frozen=True)
class Building:
    """One group of the answer: a multi-storey cube on the city grid."""

    label: str
    x: int
    y: int
    footprint: float
    segments: Tuple[Segment, ...]

    @property
    def height(self) -> float:
        return sum(s.height for s in self.segments)


@dataclass(frozen=True)
class CityLayout:
    """A grid of buildings plus the feature legend."""

    buildings: Tuple[Building, ...]
    features: Tuple[str, ...]

    def __len__(self):
        return len(self.buildings)

    def building(self, label: str) -> Optional[Building]:
        for b in self.buildings:
            if b.label == label:
                return b
        return None


def city_layout(
    frame: AnswerFrame,
    footprint: float = 1.0,
    max_height: float = 10.0,
) -> CityLayout:
    """Build the city scene from an answer frame.

    The grouping columns name the buildings; each numeric aggregate
    column becomes a segment whose height is normalized so the tallest
    building reaches ``max_height``.  Buildings are laid on a near-square
    grid in answer order.
    """
    from repro.viz.charts import chart_series

    series = chart_series(frame)
    if not series:
        raise ValueError("the answer frame has no numeric columns to visualize")
    features = tuple(s.name for s in series)
    labels = series[0].labels()
    per_building: List[List[float]] = [
        [dict(s.points).get(label, 0.0) for s in series] for label in labels
    ]
    peak = max((sum(values) for values in per_building), default=0.0) or 1.0
    scale = max_height / peak
    columns = max(1, math.ceil(math.sqrt(len(labels))))
    buildings: List[Building] = []
    for index, (label, values) in enumerate(zip(labels, per_building)):
        segments = tuple(
            Segment(feature, value, value * scale)
            for feature, value in zip(features, values)
        )
        buildings.append(
            Building(
                label=label,
                x=index % columns,
                y=index // columns,
                footprint=footprint,
                segments=segments,
            )
        )
    return CityLayout(buildings=tuple(buildings), features=features)
