"""Faceted Search over RDF and its analytics extension (Chapter 5).

* :mod:`repro.facets.model` — the core formal model: the ``Restrict`` /
  ``Joins`` operations of §5.3.1, interaction states and transition
  markers (class-based, property-based, path-expansion) with counts.
* :mod:`repro.facets.intentions` — state intentions and their SPARQL
  expression (Tables 5.1 / 5.2).
* :mod:`repro.facets.session` — the interactive session implementing the
  state-space algorithms of §5.4 (startup, right-frame objects, class
  facets, property facets, path expansion, back/undo).
* :mod:`repro.facets.analytics` — the analytics extension of §5.1–5.2:
  per-facet group-by (G) and aggregate (Σ) actions, range filters, the
  Answer Frame, and loading an answer as a new dataset (§5.3.3) which
  yields HAVING clauses and nested analytic queries.  One session class
  whose counts come from the index kernel or, given an ``endpoint``,
  from the SPARQL-only engine.
* :mod:`repro.facets.sparql_backend` — the SPARQL-only evaluation of
  the model (Tables 5.1/5.2; the Fig. 8.3 alternative implementation)
  and its graceful degradation: stale counts flagged ``approximate``,
  an operation never served empty, each failure one ``incidents``
  entry, never a crashed interaction.
* :mod:`repro.facets.planner` — §7.1 expressiveness: HIFUN query →
  click script.
* :mod:`repro.facets.browser` — the browsing access method of §1.2(i).
* :mod:`repro.facets.persistence` — save/replay whole interactions.
"""

from repro.facets.model import (
    ClassMarker,
    PropertyFacet,
    PropertyRef,
    State,
    ValueMarker,
    joins,
    restrict,
    restrict_to_class,
)
from repro.facets.intentions import (
    ClassCondition,
    Intention,
    PathRangeCondition,
    PathValueCondition,
)
from repro.facets.session import EmptyTransitionError, FacetedSession
from repro.facets.analytics import AnswerFrame, FacetedAnalyticsSession
from repro.facets.sparql_backend import DegradationEvent, SparqlFacetEngine
from repro.facets.planner import (
    InexpressibleQueryError,
    InteractionPlan,
    execute_plan,
    plan_interaction,
)
from repro.facets.browser import ResourceBrowser, ResourceCard

__all__ = [
    "ClassMarker",
    "PropertyFacet",
    "PropertyRef",
    "State",
    "ValueMarker",
    "joins",
    "restrict",
    "restrict_to_class",
    "Intention",
    "ClassCondition",
    "PathValueCondition",
    "PathRangeCondition",
    "EmptyTransitionError",
    "FacetedSession",
    "AnswerFrame",
    "FacetedAnalyticsSession",
    "SparqlFacetEngine",
    "DegradationEvent",
    "InexpressibleQueryError",
    "InteractionPlan",
    "plan_interaction",
    "execute_plan",
    "ResourceBrowser",
    "ResourceCard",
]
