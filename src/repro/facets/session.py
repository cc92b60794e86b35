"""The interactive faceted-search session (§5.3.2, §5.4).

:class:`FacetedSession` drives the state space:

* :meth:`class_markers` — the hierarchical class facets with counts
  (Fig. 5.4 a/b; Alg. "Computing the Facets corresponding to Classes");
* :meth:`property_facets` — the property facets of the current extension
  with value markers and counts (Fig. 5.4 c; §5.4.4), optionally grouped
  by value class (Fig. 5.4 d) and hierarchically organized when
  sub-properties exist;
* :meth:`expand_path` — path expansion (Fig. 5.5 b): the markers at the
  end of a property path from the current extension;
* :meth:`select_class`, :meth:`select_value`, :meth:`select_range` —
  the click transitions, each producing a new state whose intention is
  extended accordingly (never yielding an empty extension);
* :meth:`back` — history navigation;
* :meth:`objects` — the right-frame content (§5.4.2).

The session works on the RDFS closure of the input graph, so subclass /
subproperty semantics are honoured (§5.2.1).

The facet computations here are *native* (direct index access, always
consistent).  When counts must instead come from a remote — and hence
fallible — SPARQL endpoint, use
:class:`repro.facets.resilient.ResilientFacetedSession`, which overrides
``class_markers`` / ``property_facets`` / ``facet`` to query through the
resilience layer and degrade gracefully on failure; the transition
methods below are shared and never depend on the endpoint.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.caching import CacheStats, GenerationCache
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.rdfs import SchemaView
from repro.rdf.terms import IRI, Literal, Term
from repro.facets.intentions import (
    ClassCondition,
    Intention,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
)
from repro.facets.model import (
    ClassMarker,
    Path,
    PropertyFacet,
    PropertyRef,
    State,
    ValueMarker,
    _instance_ids,
    _joins_ids,
    _path_joins_ids,
    _restrict_by_path_ids,
)
from repro.sparql.errors import ExpressionError
from repro.sparql.functions import comparison

#: One facet's rows in id space: the property id, the value ids in
#: marker order, and whether the rows are pairwise disjoint on the
#: extension (no member has two values) — then they are on every subset
#: of it, where the having-the-property count is the sum of the counts.
_FacetRows = Tuple[int, Tuple[int, ...], bool]


class EmptyTransitionError(ValueError):
    """Raised when a requested transition would empty the extension —
    the model guarantees the UI never offers such a transition, so
    hitting this means the caller bypassed the offered markers."""


class FacetedSession:
    """A faceted exploration session over an RDF graph."""

    def __init__(
        self,
        graph: Graph,
        results: Optional[Iterable[Term]] = None,
        closed: bool = False,
        analyze: bool = False,
    ):
        """Start a session (the *Startup* of §5.4.1).

        ``results`` starts the session from an external result set (e.g.
        a keyword query) instead of from scratch.  ``closed`` marks the
        graph as already RDFS-closed.  ``analyze`` turns on strict static
        analysis: analytic queries are type-checked against the inferred
        schema before any evaluation, and
        :class:`repro.analysis.StaticAnalysisError` is raised on
        error-severity findings (warnings are emitted via ``warnings``).
        """
        self.analyze = analyze
        self.schema = SchemaView(graph, closed=closed)
        self.graph = self.schema.graph
        # Generation-stamped cache for facet counts / class markers /
        # applicable properties: keyed on (operation, extension ids,
        # ...), stamped with the graph generation, so any mutation
        # invalidates, and *back* navigation re-serves earlier states
        # for free.
        self._facet_cache = GenerationCache(maxsize=512, name="facet-counts")
        # Derived forms of the current extension (subclasses add
        # theirs), memoized per (generation, state): _per_state.
        self._state_memo: Tuple[int, Optional[FrozenSet[int]], Dict[str, object]] = (
            -1, None, {})
        graph = self.graph
        if results is not None:
            seeds = frozenset(results)
            intention = Intention(seeds=tuple(sorted(seeds, key=lambda t: t.sort_key())))
            ids = frozenset(graph.encode_terms(seeds))
            unknown = frozenset(
                t for t in seeds if graph.encode_term(t) is None
            ) if len(ids) < len(seeds) else frozenset()
            initial = State(graph, ids, intention, "results", unknown)
        else:
            initial = State(graph, self._individual_ids(), Intention())
        self._history: List[State] = [initial]

    def _individual_ids(self) -> FrozenSet[int]:
        """Every typed subject that is not a class or a property, in id
        space: the union of the subject sets of the ``rdf:type`` POS
        row, minus the subjects typed as classes or properties."""
        graph = self.graph
        type_id = graph.encode_term(RDF.type)
        if type_id is None:
            return frozenset()
        subject_ids = set().union(*graph.pos_ids(type_id).values())
        for special in (RDFS.Class, RDF.Property):
            special_id = graph.encode_term(special)
            if special_id is not None:
                subject_ids -= graph.subjects_ids(type_id, special_id)
        return frozenset(subject_ids)

    def _per_state(self, name: str, build):
        """``build()``, memoized under ``name`` per (generation, state).

        Dictionary ids are append-only, so within one generation a
        derived form of the extension can only be recomputed to the same
        answer; a new state carries a new id set (compared by identity),
        and any mutation invalidates conservatively.
        """
        generation, ids = self.graph.generation, self.state.ids
        memo = self._state_memo
        if memo[0] != generation or memo[1] is not ids:
            memo = self._state_memo = (generation, ids, {})
        derived = memo[2]
        if name not in derived:
            derived[name] = build()
        return derived[name]

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def state(self) -> State:
        return self._history[-1]

    @property
    def extension(self) -> FrozenSet[Term]:
        return self.state.extension

    def objects(self, limit: Optional[int] = None) -> List[Term]:
        """The right-frame objects of the current state (§5.4.2)."""
        items = sorted(self.extension, key=lambda t: t.sort_key())
        return items[:limit] if limit is not None else items

    def history(self) -> List[State]:
        return list(self._history)

    def cache_stats(self) -> Dict[str, CacheStats]:
        """Hit/miss/eviction counters for every cache the session touches:
        facet counts, SPARQL result cache, and the parse cache."""
        from repro.sparql import parse_cache_stats

        return {
            "facets": self._facet_cache.stats(),
            "sparql": self.graph.sparql_cache.stats(),
            "parse": parse_cache_stats(),
        }

    def back(self) -> State:
        """Undo the last transition; stays at the initial state if there."""
        if len(self._history) > 1:
            self._history.pop()
        return self.state

    def _push(self, ids: AbstractSet[int], intention: Intention,
              description: str) -> State:
        if not ids:
            raise EmptyTransitionError(
                f"transition '{description}' would produce an empty result"
            )
        state = State(self.graph, frozenset(ids), intention, description)
        self._history.append(state)
        return state

    # ------------------------------------------------------------------
    # Class-based transitions (§5.4.3)
    # ------------------------------------------------------------------
    def class_markers(self, expanded: bool = False) -> List[ClassMarker]:
        """Top-level class markers; ``expanded`` unfolds the hierarchy
        (reflexive-transitive reduction, Fig. 5.4 b).

        Counts are intersections of the extension's id set with the
        POS index rows of ``rdf:type``; results are served from the
        generation-stamped cache on repeat.
        """
        extension_ids = self.state.ids
        key = ("classes", extension_ids, expanded)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return list(cached)
        graph = self.graph

        def build(cls: IRI, depth: bool) -> Optional[ClassMarker]:
            count = len(extension_ids & _instance_ids(graph, cls))
            if not count:
                return None
            children: Tuple[ClassMarker, ...] = ()
            if depth:
                kids = []
                for sub in sorted(
                    self.schema.subclasses(cls, direct=True),
                    key=lambda t: t.sort_key(),
                ):
                    marker = build(sub, depth)
                    if marker is not None:
                        kids.append(marker)
                children = tuple(kids)
            return ClassMarker(cls, count, children)

        markers = []
        for cls in self.schema.maximal_classes():
            marker = build(cls, expanded)
            if marker is not None:
                markers.append(marker)
        self._facet_cache.put(key, generation, tuple(markers))
        return markers

    def select_class(self, cls: IRI) -> State:
        """Click a class marker: extension becomes ``Restrict(E, c)``."""
        ids = self.state.ids & _instance_ids(self.graph, cls)
        intention = self.state.intention.with_class(cls)
        return self._push(ids, intention, f"class {cls.local_name()}")

    # ------------------------------------------------------------------
    # Property-based transitions (§5.4.4)
    # ------------------------------------------------------------------
    _SCHEMA_PROPS = frozenset(
        {RDF.type, RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range}
    )

    def applicable_properties(self, include_inverse: bool = False) -> List[PropertyRef]:
        """Properties with at least one value on the current extension.

        Discovery walks the SPO (and, for inverses, OSP) index rows of
        the extension at the id level and decodes each distinct
        predicate once; repeats come from the generation-stamped cache.
        """
        extension_ids = self.state.ids
        key = ("props", extension_ids, include_inverse)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return list(cached)
        graph = self.graph
        decode = graph.decode_id
        forward_ids: Set[int] = set()
        inverse_ids: Set[int] = set()
        for eid in extension_ids:
            forward_ids.update(graph.spo_ids(eid).keys())
            if include_inverse and not isinstance(decode(eid), Literal):
                for preds in graph.osp_ids(eid).values():
                    inverse_ids.update(preds)
        found: Set[PropertyRef] = set()
        for ids, inverse in ((forward_ids, False), (inverse_ids, True)):
            for pid in ids:
                p = decode(pid)
                if p not in self._SCHEMA_PROPS and isinstance(p, IRI):
                    found.add(PropertyRef(p, inverse=inverse))
        refs = sorted(found, key=lambda r: (r.prop.sort_key(), r.inverse))
        self._facet_cache.put(key, generation, tuple(refs))
        return refs

    def property_facets(self, include_inverse: bool = False) -> List[PropertyFacet]:
        """One facet per applicable property, with value markers+counts.

        Delegates to :meth:`all_facets` — the shared-scan batch path —
        so the left frame costs one pass over the extension's index rows
        instead of one pass per property."""
        return self.all_facets(include_inverse)

    def all_facets(self, include_inverse: bool = False) -> List[PropertyFacet]:
        """Every applicable property's facet, from the nearest listed
        ancestor when there is one and from ONE shared scan otherwise.

        Every click restricts the current extension, so a state's
        non-empty ``(property, value)`` rows are among those of any
        state in the history whose id set is a superset.  When such a
        state was listed in this generation, only the rows of *its*
        listing are re-counted (:meth:`_recount`); otherwise the whole
        POS index is scanned (:meth:`_scan`).  Either way the
        per-property results are identical to :meth:`facet` (the
        equivalence tests assert it) and are seeded into the
        generation-stamped cache under the same keys, so subsequent
        single-facet and listing requests are O(1)."""
        state = self.state
        key = ("all-facets", state.ids, include_inverse)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return list(cached)
        ids = state.ids
        if include_inverse:
            # A literal member is the source of no inverse edge (as in
            # _compute_facet); forward rows hold no literal subject.
            decode = self.graph.decode_id
            ids = frozenset(
                i for i in ids if not isinstance(decode(i), Literal))
        for ancestor in reversed(self._history):
            listed = ancestor.listing.get(include_inverse)
            if (listed is not None and listed[0] == generation
                    and ancestor.ids >= state.ids):
                facets, rows = self._recount(ids, listed[1], listed[2])
                break
        else:
            facets, rows = self._scan(ids, include_inverse)
        state.listing[include_inverse] = (generation, facets, rows)
        for facet in facets:
            self._facet_cache.put(("facet", state.ids, facet.path),
                                  generation, facet)
        self._facet_cache.put(
            ("props", state.ids, include_inverse),
            generation, tuple(facet.prop for facet in facets),
        )
        self._facet_cache.put(key, generation, facets)
        return list(facets)

    def _recount(
        self, ids: FrozenSet[int], listed: Tuple[PropertyFacet, ...],
        listed_rows: Tuple[_FacetRows, ...],
    ) -> Tuple[Tuple[PropertyFacet, ...], Tuple[_FacetRows, ...]]:
        """The listing of ``ids`` out of a superset's: one intersection
        ``ids ∩ row`` per listed marker, in the listing's order — the
        markers that stay non-empty are the new listing, already sorted
        and already decoded."""
        subjects_ids, objects_ids = self.graph.subjects_ids, self.graph.objects_ids
        facets: List[PropertyFacet] = []
        rows: List[_FacetRows] = []
        for facet, (prop_id, value_ids, disjoint) in zip(listed, listed_rows):
            inverse = facet.prop.inverse
            markers: List[ValueMarker] = []
            kept: List[int] = []
            total = 0
            havers: Set[int] = set()
            for marker, value_id in zip(facet.values, value_ids):
                members = ids & (objects_ids(value_id, prop_id) if inverse
                                 else subjects_ids(prop_id, value_id))
                if members:
                    count = len(members)
                    markers.append(marker if count == marker.count
                                   else ValueMarker(marker.value, count))
                    kept.append(value_id)
                    total += count
                    if not disjoint:
                        havers |= members
            if markers:
                having = total if disjoint else len(havers)
                facets.append(PropertyFacet(
                    path=facet.path, count=having, values=tuple(markers)))
                rows.append((prop_id, tuple(kept), having == total))
        return tuple(facets), tuple(rows)

    def _scan(
        self, ids: FrozenSet[int], include_inverse: bool,
    ) -> Tuple[Tuple[PropertyFacet, ...], Tuple[_FacetRows, ...]]:
        """The listing of ``ids`` from one property-major pass over the
        POS index (:meth:`repro.rdf.graph.Graph.facet_counts`)."""
        graph = self.graph
        decode = graph.decode_id
        schema_ids = {
            pid
            for pid in (graph.encode_term(p) for p in self._SCHEMA_PROPS)
            if pid is not None
        }
        counters, having = graph.facet_counts(ids, schema_ids, include_inverse)
        # Decode each property once, drop non-IRI predicates, order like
        # applicable_properties, and materialize the facets — keeping
        # each facet's value ids in marker order for the descendants.
        refs: List[Tuple[PropertyRef, Tuple[int, bool]]] = []
        for slot in counters:
            prop = decode(slot[0])
            if isinstance(prop, IRI):
                refs.append((PropertyRef(prop, inverse=slot[1]), slot))
        refs.sort(key=lambda pair: (pair[0].prop.sort_key(), pair[0].inverse))
        facets: List[PropertyFacet] = []
        facet_rows: List[_FacetRows] = []
        for ref, slot in refs:
            counter = counters[slot]
            values = sorted(((decode(vid), vid) for vid in counter),
                            key=lambda pair: pair[0].sort_key())
            facets.append(PropertyFacet(
                path=(ref,), count=having[slot],
                values=tuple(ValueMarker(value, counter[vid])
                             for value, vid in values)))
            facet_rows.append((slot[0], tuple(vid for _, vid in values),
                               having[slot] == sum(counter.values())))
        return tuple(facets), tuple(facet_rows)

    def facet(self, path) -> PropertyFacet:
        """The facet at ``path`` (a PropertyRef, IRI, or tuple thereof).

        Value counts are computed in a single pass over the previous
        marker set's edges (grouped join) rather than one ``Restrict``
        per value — the same O(edges) cost regardless of how many
        distinct values the facet has (DESIGN.md design choice 4).
        The pass runs entirely on int ids against the live index sets
        and decodes each distinct value once; identical (state, path)
        requests are served from the generation-stamped cache.
        """
        path = self._normalize_path(path)
        key = ("facet", self.state.ids, path)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return cached
        facet = self._compute_facet(path)
        self._facet_cache.put(key, generation, facet)
        return facet

    def _compute_facet(self, path: Path) -> PropertyFacet:
        graph = self.graph
        extension_ids = self.state.ids
        previous = (
            extension_ids if len(path) == 1
            else _path_joins_ids(graph, extension_ids, path[:-1])[-1]
        )
        step = path[-1]
        prop_id = graph.encode_term(step.prop)
        decode = graph.decode_id
        counters: Dict[int, int] = {}
        having_property = 0
        if prop_id is not None:
            neighbours = (
                (lambda n: graph.subjects_ids(prop_id, n)) if step.inverse
                else (lambda n: graph.objects_ids(n, prop_id))
            )
            for node_id in previous:
                targets = neighbours(node_id)
                if not targets or isinstance(decode(node_id), Literal):
                    continue
                having_property += 1
                for value_id in targets:
                    counters[value_id] = counters.get(value_id, 0) + 1
        values = tuple(
            ValueMarker(value, count)
            for value, count in sorted(
                ((decode(vid), n) for vid, n in counters.items()),
                key=lambda pair: pair[0].sort_key(),
            )
        )
        return PropertyFacet(path=path, count=having_property, values=values)

    def expand_path(self, path, next_prop) -> PropertyFacet:
        """Path expansion (Fig. 5.5 b): extend ``path`` with one more
        property and return the facet at the new end."""
        path = self._normalize_path(path)
        step = self._normalize_step(next_prop)
        return self.facet(path + (step,))

    def group_values_by_class(self, facet: PropertyFacet) -> Dict[Optional[IRI], List[ValueMarker]]:
        """Group a facet's value markers under their classes (Fig. 5.4 d).

        Values without a type fall under the ``None`` key.  Classes are
        most-specific (direct types only).
        """
        grouped: Dict[Optional[IRI], List[ValueMarker]] = {}
        for marker in facet.values:
            types = [
                t
                for t in self.graph.objects(marker.value, RDF.type)
                if isinstance(t, IRI)
            ] if not isinstance(marker.value, Literal) else []
            specific = self._most_specific(types)
            grouped.setdefault(specific, []).append(marker)
        return grouped

    def _most_specific(self, types: List[IRI]) -> Optional[IRI]:
        if not types:
            return None
        candidates = set(types)
        for t in types:
            candidates -= self.schema.superclasses(t)
        chosen = sorted(candidates, key=lambda t: t.sort_key())
        return chosen[0] if chosen else None

    def property_hierarchy(self) -> Dict[PropertyRef, List[PropertyRef]]:
        """Applicable properties organized by the sub-property reduction."""
        refs = self.applicable_properties()
        by_iri = {ref.prop: ref for ref in refs}
        tree: Dict[PropertyRef, List[PropertyRef]] = {}
        for ref in refs:
            parents = self.schema.superproperties(ref.prop, direct=True)
            applicable_parents = [p for p in parents if p in by_iri]
            if not applicable_parents:
                tree.setdefault(ref, [])
            else:
                for parent in applicable_parents:
                    tree.setdefault(by_iri[parent], []).append(ref)
        return tree

    # ------------------------------------------------------------------
    # Click transitions
    # ------------------------------------------------------------------
    def select_value(self, path, value: Term) -> State:
        """Click a value marker at the end of ``path`` (Eq. 5.1)."""
        path = self._normalize_path(path)
        ids = _restrict_by_path_ids(
            self.graph, self.state.ids, path, self.graph.encode_terms((value,)))
        intention = self.state.intention.with_condition(
            PathValueCondition(path, value)
        )
        label = value.local_name() if isinstance(value, IRI) else str(value)
        description = f"{'/'.join(s.name for s in path)} = {label}"
        return self._push(ids, intention, description)

    def select_values(self, path, values: Iterable[Term]) -> State:
        """Click several values of the same facet (disjunctive selection)."""
        path = self._normalize_path(path)
        values = set(values)
        ids = _restrict_by_path_ids(
            self.graph, self.state.ids, path, self.graph.encode_terms(values))
        intention = self.state.intention.with_condition(
            PathValueSetCondition(path, tuple(sorted(values, key=lambda t: t.sort_key())))
        )
        description = f"{'/'.join(s.name for s in path)} in {{{len(values)} values}}"
        return self._push(ids, intention, description)

    def select_range(self, path, comparator: str, value: Literal) -> State:
        """Apply a range filter on a (numeric/date) facet (Example 3)."""
        path = self._normalize_path(path)
        graph = self.graph
        # Every value the last step can end at — its POS row keys, a
        # superset of the path's marker set that the restriction cuts
        # back to it — tested against the bound (parsed once; a pair
        # SPARQL cannot compare does not pass).
        last = path[-1]
        prop_id = graph.encode_term(last.prop)
        rows = graph.pos_ids(prop_id) if prop_id is not None else {}
        candidates = frozenset().union(*rows.values()) if last.inverse else rows
        passes = comparison(comparator, value)
        decode = graph.decode_id
        matching: List[int] = []
        for value_id in candidates:
            try:
                if passes(decode(value_id)):
                    matching.append(value_id)
            except ExpressionError:
                pass
        ids = _restrict_by_path_ids(graph, self.state.ids, path, matching)
        intention = self.state.intention.with_condition(
            PathRangeCondition(path, comparator, value)
        )
        description = f"{'/'.join(s.name for s in path)} {comparator} {value}"
        return self._push(ids, intention, description)

    def pivot_to(self, path) -> State:
        """Switch entity type (§5.2.1 differentiator iii): the new
        extension is ``Joins(E, path)`` — e.g. pivot from the current
        laptops to *their manufacturers* and keep exploring from there.
        """
        path = self._normalize_path(path)
        ids: AbstractSet[int] = self.state.ids
        for step in path:
            ids = _joins_ids(self.graph, ids, step)
        intention = self.state.intention.with_pivot(path)
        description = "pivot to " + "/".join(s.name for s in path)
        return self._push(ids, intention, description)

    def select_interval(self, path, low: Literal, high: Literal) -> State:
        """Apply a closed interval filter (``low ≤ value ≤ high``)."""
        self.select_range(path, ">=", low)
        try:
            return self.select_range(path, "<=", high)
        except EmptyTransitionError:
            self.back()
            raise

    # ------------------------------------------------------------------
    def _normalize_path(self, path) -> Path:
        if isinstance(path, PropertyRef):
            return (path,)
        if isinstance(path, IRI):
            return (PropertyRef(path),)
        normalized = tuple(self._normalize_step(step) for step in path)
        if not normalized:
            raise ValueError("a property path needs at least one step")
        return normalized

    @staticmethod
    def _normalize_step(step) -> PropertyRef:
        if isinstance(step, PropertyRef):
            return step
        if isinstance(step, IRI):
            return PropertyRef(step)
        raise TypeError(f"cannot use {step!r} as a property path step")
