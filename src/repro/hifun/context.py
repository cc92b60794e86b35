"""Analysis contexts and HIFUN applicability checks (§2.5, §4.1).

An :class:`AnalysisContext` fixes the ingredients of an analysis:

* the **root** ``D`` — a set of uniquely identified data items, given
  either as a class (its instances) or as an explicit resource set
  (e.g. the extension of a faceted-search state);
* the **attributes** — the properties (or property paths) relevant to
  the analysis.

§4.1.1 requires the attributes to be *functional* on ``D`` (single-valued
and total).  :meth:`AnalysisContext.check_prerequisites` audits that and
reports, per attribute, the items with missing or multiple values, so the
caller can pick a Feature Creation Operator (Table 4.1) to repair them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS, SCHEMA_PREDICATES
from repro.rdf.terms import IRI, Term
from repro.hifun.attributes import Attribute, AttributeExpr, paths_of
from repro.hifun.evaluator import attribute_values, evaluate_hifun


@dataclass(frozen=True)
class AttributeAudit:
    """Functionality audit of one attribute over the context root."""

    attribute: AttributeExpr
    total_items: int
    missing: int
    multi_valued: int

    @property
    def is_functional(self) -> bool:
        """True when every item has exactly one value (HIFUN-ready)."""
        return self.missing == 0 and self.multi_valued == 0

    @property
    def is_effectively_functional(self) -> bool:
        """True when no item has more than one value (partial function)."""
        return self.multi_valued == 0


@dataclass(frozen=True)
class PrerequisiteReport:
    """The result of :meth:`AnalysisContext.check_prerequisites`."""

    audits: Tuple[AttributeAudit, ...]

    @property
    def satisfied(self) -> bool:
        return all(a.is_functional for a in self.audits)

    def offending(self) -> List[AttributeAudit]:
        return [a for a in self.audits if not a.is_functional]

    def __str__(self):
        lines = []
        for audit in self.audits:
            status = "ok" if audit.is_functional else (
                f"missing={audit.missing}, multi={audit.multi_valued}"
            )
            lines.append(f"{audit.attribute}: {status}")
        return "\n".join(lines)


class AnalysisContext:
    """An analysis context ``(D, {a_1, ..., a_k})`` over an RDF graph."""

    def __init__(
        self,
        graph: Graph,
        root: Union[IRI, Iterable[Term], None] = None,
        attributes: Sequence[AttributeExpr] = (),
    ):
        """``root`` may be a class IRI (use its ``rdf:type`` instances), an
        explicit iterable of items, or ``None`` (all subjects with a type).
        """
        self.graph = graph
        self.root_class: Optional[IRI] = None
        if root is None:
            self.items: Set[Term] = set(graph.subjects(RDF.type, None))
            if not self.items:
                self.items = graph.all_subjects()
        elif isinstance(root, IRI) and self._is_class(graph, root):
            self.root_class = root
            self.items = set(graph.subjects(RDF.type, root))
        elif isinstance(root, IRI):
            self.items = {root}
        else:
            self.items = set(root)
        self.attributes: Tuple[AttributeExpr, ...] = tuple(attributes)

    @staticmethod
    def _is_class(graph: Graph, iri: IRI) -> bool:
        if next(graph.triples(None, RDF.type, iri), None) is not None:
            return True
        return (
            next(graph.triples(iri, RDF.type, RDFS.Class), None) is not None
            or next(graph.triples(iri, RDFS.subClassOf, None), None) is not None
            or next(graph.triples(None, RDFS.subClassOf, iri), None) is not None
        )

    # ------------------------------------------------------------------
    def applicable_attributes(self) -> List[Attribute]:
        """Direct attributes applicable to the root: every property for
        which at least one item has a value (§5.2.2)."""
        found: Set[IRI] = set()
        for item in self.items:
            for p in self.graph.predicates(item, None):
                if p not in SCHEMA_PREDICATES and isinstance(p, IRI):
                    found.add(p)
        return [Attribute(p) for p in sorted(found, key=lambda t: t.sort_key())]

    def with_attributes(self, attributes: Sequence[AttributeExpr]) -> "AnalysisContext":
        context = AnalysisContext(self.graph, None, attributes)
        context.items = set(self.items)
        context.root_class = self.root_class
        return context

    # ------------------------------------------------------------------
    def audit_attribute(self, attribute: AttributeExpr) -> AttributeAudit:
        """Count items with no value / multiple values for ``attribute``."""
        missing = 0
        multi = 0
        for item in self.items:
            for path in paths_of(attribute):
                values = attribute_values(self.graph, item, path)
                if len(values) == 0:
                    missing += 1
                elif len(values) > 1:
                    multi += 1
        return AttributeAudit(
            attribute=attribute,
            total_items=len(self.items),
            missing=missing,
            multi_valued=multi,
        )

    def check_prerequisites(
        self, attributes: Optional[Sequence[AttributeExpr]] = None
    ) -> PrerequisiteReport:
        """Audit the HIFUN prerequisites of §4.1.1 for the attributes."""
        targets = tuple(attributes) if attributes is not None else self.attributes
        if not targets:
            targets = tuple(self.applicable_attributes())
        return PrerequisiteReport(
            audits=tuple(self.audit_attribute(a) for a in targets)
        )

    # ------------------------------------------------------------------
    def evaluate(self, query) -> "AnswerFunction":
        """Evaluate a HIFUN query over this context's root ``D``."""
        return evaluate_hifun(self.graph, query, items=self.items)

    def translate(self, query):
        """The SPARQL translation of ``query`` rooted at this context.

        Only available for class-rooted contexts (an explicit item set
        needs the analytics session's temp-class view instead).
        """
        from repro.hifun.translator import translate as _translate

        if self.root_class is None:
            raise ValueError(
                "translation needs a class-rooted context; use "
                "FacetedAnalyticsSession for arbitrary item sets"
            )
        return _translate(query, root_class=self.root_class)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self):
        root = self.root_class.local_name() if self.root_class else f"{len(self.items)} items"
        return f"<AnalysisContext root={root} attrs={len(self.attributes)}>"
