"""Dataset profiling and distribution analysis (category-B analytics).

Answers the §3.2.3 category-B question shapes over a local graph:

* *coverage*: how many triples/values a dataset offers per entity,
  class or property;
* *element distributions*: usage counts of properties and classes, the
  degree distribution of resources;
* *power-law detection* (the Theoharis et al. / LOD-a-lot analyses of
  Table 3.4): a log–log least-squares fit of the frequency distribution
  with the fitted exponent and correlation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import BNode, IRI, Literal, Term


@dataclass(frozen=True)
class DatasetProfile:
    """VoID-style statistics of one RDF dataset."""

    triples: int
    distinct_subjects: int
    distinct_predicates: int
    distinct_objects: int
    literals: int
    blank_nodes: int
    classes: int
    class_instances: Dict[IRI, int]
    property_usage: Dict[IRI, int]

    def coverage(self, entity: Term, graph: Graph) -> int:
        """Coverage of one entity: the triples mentioning it (the
        'how many triples does the dataset offer for X' query)."""
        outgoing = sum(1 for _ in graph.triples(entity, None, None))
        incoming = sum(1 for _ in graph.triples(None, None, entity))
        return outgoing + incoming

    def top_properties(self, limit: int = 10) -> List[Tuple[IRI, int]]:
        return sorted(
            self.property_usage.items(), key=lambda kv: (-kv[1], kv[0].sort_key())
        )[:limit]


def profile_graph(graph: Graph) -> DatasetProfile:
    """Compute the dataset profile in one pass over the graph."""
    subjects = set()
    predicates: Counter = Counter()
    objects = set()
    literals = 0
    blanks = set()
    for s, p, o in graph:
        subjects.add(s)
        predicates[p] += 1
        objects.add(o)
        if isinstance(o, Literal):
            literals += 1
        if isinstance(s, BNode):
            blanks.add(s)
        if isinstance(o, BNode):
            blanks.add(o)
    class_instances: Dict[IRI, int] = {}
    for cls in set(graph.objects(None, RDF.type)):
        if isinstance(cls, IRI):
            class_instances[cls] = graph.count(None, RDF.type, cls)
    return DatasetProfile(
        triples=len(graph),
        distinct_subjects=len(subjects),
        distinct_predicates=len(predicates),
        distinct_objects=len(objects),
        literals=literals,
        blank_nodes=len(blanks),
        classes=len(class_instances),
        class_instances=class_instances,
        property_usage={
            p: n for p, n in predicates.items() if isinstance(p, IRI)
        },
    )


def degree_distribution(graph: Graph) -> Dict[int, int]:
    """Histogram degree → number of resources with that degree."""
    degrees: Counter = Counter()
    for s, _, o in graph:
        degrees[s] += 1
        if isinstance(o, (IRI, BNode)):
            degrees[o] += 1
    histogram: Counter = Counter(degrees.values())
    return dict(sorted(histogram.items()))


@dataclass(frozen=True)
class PowerLawFit:
    """A log–log least-squares fit of a frequency distribution.

    ``frequency(x) ≈ C · x^(-alpha)``; ``r_squared`` close to 1 with
    ``alpha`` typically in [1, 3.5] signals power-law behaviour (the
    §3.3.6 criterion applied by the surveyed distribution analyses).
    """

    alpha: float
    intercept: float
    r_squared: float
    points: int

    @property
    def looks_power_law(self) -> bool:
        return self.points >= 4 and self.r_squared >= 0.8 and self.alpha > 0.5


def power_law_fit(histogram: Dict[int, int]) -> Optional[PowerLawFit]:
    """Fit ``log(count) = intercept − alpha·log(value)`` by least squares.

    Returns ``None`` when fewer than two distinct positive points exist.
    """
    points = [
        (math.log(value), math.log(count))
        for value, count in histogram.items()
        if value > 0 and count > 0
    ]
    if len(points) < 2:
        return None
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    ss_xx = sum((x - mean_x) ** 2 for x, _ in points)
    if ss_xx == 0:
        return None
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for _, y in points)
    ss_res = sum(
        (y - (intercept + slope * x)) ** 2 for x, y in points
    )
    r_squared = 1.0 - (ss_res / ss_tot if ss_tot else 0.0)
    return PowerLawFit(
        alpha=-slope, intercept=intercept, r_squared=r_squared, points=n
    )
