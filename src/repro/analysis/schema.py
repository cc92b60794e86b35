"""Schema inference over a :class:`~repro.rdf.graph.Graph`.

The analyzers need, per property, the information a SHACL/ViziQuer-style
schema would provide: which classes it applies to (domain), what it
points at (range classes, or literal datatypes), and whether it is
functional on the data.  RDF graphs rarely declare all of this, so
:func:`infer_schema` *derives* it:

* declared ``rdfs:domain`` / ``rdfs:range`` axioms are merged with the
  **observed** types of subjects and objects, read off the ``rdf:type``
  POS rows: a class is observed iff its instances meet the property's
  subjects (objects) — one C-level disjointness test per class, no
  per-node walk;
* functionality is decided in O(distinct objects) per predicate from the
  POS index: a property is functional iff its triple count equals its
  distinct-subject count (each subject has at most one value);
* literal-valued properties record the set of observed datatypes, which
  drives the aggregate/restriction type checks.

Triple counts come from the graph's O(1) per-predicate counters; the
result is cached per ``(graph, generation)``, so repeated analyses of an
unchanged graph are free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS, SCHEMA_PREDICATES
from repro.rdf.rdfs import _transitive_closure
from repro.rdf.terms import IRI, Literal, Term


@dataclass(frozen=True)
class PropertySignature:
    """Everything the analyzers know about one property."""

    prop: IRI
    #: Number of triples with this predicate (O(1) from the stats).
    triples: int
    #: Number of distinct subjects carrying the property.
    subjects: int
    #: True iff no subject has two values (triples == subjects).
    functional: bool
    #: Declared + observed classes of the subjects.
    domains: FrozenSet[Term]
    #: Declared + observed classes of resource objects.
    ranges: FrozenSet[Term]
    #: Observed datatype IRIs of literal objects.
    datatypes: FrozenSet[str]
    #: Distinct resource (IRI/BNode) objects observed.
    resource_objects: int
    #: Distinct literal objects observed.
    literal_objects: int

    @property
    def inverse_functional(self) -> bool:
        """True iff no object has two subjects — the functionality of
        the *inverse* attribute ``p⁻¹`` (triples == distinct objects)."""
        return self.triples == self.resource_objects + self.literal_objects

    @property
    def is_datatype_property(self) -> bool:
        """Objects are exclusively literals (and at least one was seen)."""
        return self.literal_objects > 0 and self.resource_objects == 0

    @property
    def is_object_property(self) -> bool:
        """Objects are exclusively resources (and at least one was seen)."""
        return self.resource_objects > 0 and self.literal_objects == 0


@dataclass(frozen=True)
class SchemaInfo:
    """The inferred schema of a graph at one generation."""

    signatures: Dict[IRI, PropertySignature]
    classes: FrozenSet[Term]
    #: Reflexive-transitive ``rdfs:subClassOf`` up-closure per class.
    superclasses: Dict[Term, FrozenSet[Term]]
    generation: int = field(compare=False, default=0)

    def signature(self, prop: IRI) -> Optional[PropertySignature]:
        return self.signatures.get(prop)

    def up(self, classes: Iterable[Term]) -> FrozenSet[Term]:
        """Expand a class set with all superclasses (reflexive)."""
        out: Set[Term] = set()
        for cls in classes:
            out |= self.superclasses.get(cls, frozenset({cls}))
        return frozenset(out)

    def compatible(self, sources: FrozenSet[Term], targets: FrozenSet[Term]) -> bool:
        """Can an instance of some class in ``sources`` also be typed by
        some class in ``targets``?  Unknown (empty) sides never rule out
        compatibility — the analyzers only flag *provable* mismatches."""
        if not sources or not targets:
            return True
        return bool(self.up(sources) & self.up(targets))


#: Attribute under which the (generation, SchemaInfo) pair is memoized on
#: the graph instance itself — graphs define ``__eq__`` without ``__hash__``
#: and so cannot key a WeakKeyDictionary; storing on the instance gives the
#: same lifetime coupling for free.
_CACHE_ATTR = "_analysis_schema_cache"


def infer_schema(graph: Graph) -> SchemaInfo:
    """Infer (and cache per graph generation) the property signatures."""
    cached: Optional[Tuple[int, SchemaInfo]] = getattr(graph, _CACHE_ATTR, None)
    if cached is not None and cached[0] == graph.generation:
        return cached[1]
    info = _infer(graph)
    setattr(graph, _CACHE_ATTR, (graph.generation, info))
    return info


def _classes_meeting(typed: Dict[int, Set[int]], nodes: Set[int]) -> Set[int]:
    """The class ids of ``typed`` (the ``rdf:type`` POS rows: class →
    its instances) with an instance among ``nodes``."""
    return {cls for cls, members in typed.items()
            if not members.isdisjoint(nodes)}


def _infer(graph: Graph) -> SchemaInfo:
    type_pi = graph.encode_term(RDF.type)
    typed = {} if type_pi is None else graph.pos_ids(type_pi)

    # -- classes and the subclass up-closure ---------------------------
    classes: Set[Term] = set(graph.objects(None, RDF.type))
    classes.update(graph.subjects(RDF.type, RDFS.Class))
    edges: Dict[Term, Set[Term]] = {}
    for sub, _, sup in graph.triples(None, RDFS.subClassOf, None):
        classes.add(sub)
        classes.add(sup)
        edges.setdefault(sub, set()).add(sup)
    closure = _transitive_closure(edges)
    superclasses: Dict[Term, FrozenSet[Term]] = {
        cls: frozenset(closure.get(cls, ())) | {cls} for cls in classes}

    # -- per-property signatures ---------------------------------------
    signatures: Dict[IRI, PropertySignature] = {}
    counts = graph.predicate_counts()
    properties: Set[IRI] = {
        p for p in counts if isinstance(p, IRI) and p not in SCHEMA_PREDICATES
    }
    # Declared-but-unused properties still get (empty) signatures, so the
    # checkers can tell "declared, no data" from "entirely unknown".
    properties.update(
        p for p in graph.subjects(RDF.type, RDF.Property)
        if isinstance(p, IRI) and p not in SCHEMA_PREDICATES
    )
    properties.update(
        p for p in graph.subjects(RDFS.domain, None)
        if isinstance(p, IRI) and p not in SCHEMA_PREDICATES
    )

    decode = graph.decode_id
    for prop in properties:
        declared_domains = set(graph.objects(prop, RDFS.domain))
        declared_ranges = set(graph.objects(prop, RDFS.range))
        pi = graph.encode_term(prop)
        pair_count = counts.get(prop, 0)
        subject_ids: Set[int] = set()
        resource_ids: Set[int] = set()
        datatypes: Set[str] = set()
        literal_objects = 0
        if pi is not None:
            for oi, subject_set in graph.pos_ids(pi).items():
                subject_ids |= subject_set
                obj = decode(oi)
                if isinstance(obj, Literal):
                    literal_objects += 1
                    datatypes.add(obj.datatype)
                else:
                    resource_ids.add(oi)
        domains = declared_domains | graph.decode_ids(
            _classes_meeting(typed, subject_ids))
        ranges = declared_ranges | graph.decode_ids(
            _classes_meeting(typed, resource_ids))
        signatures[prop] = PropertySignature(
            prop=prop,
            triples=pair_count,
            subjects=len(subject_ids),
            functional=pair_count == len(subject_ids),
            domains=frozenset(domains),
            ranges=frozenset(ranges),
            datatypes=frozenset(datatypes),
            resource_objects=len(resource_ids),
            literal_objects=literal_objects,
        )

    return SchemaInfo(
        signatures=signatures,
        classes=frozenset(classes),
        superclasses=superclasses,
        generation=graph.generation,
    )
