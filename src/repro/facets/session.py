"""The interactive faceted-search session (§5.3.2, §5.4).

:class:`FacetedSession` drives the state space:

* :meth:`class_markers` — the hierarchical class facets with counts
  (Fig. 5.4 a/b; Alg. "Computing the Facets corresponding to Classes");
* :meth:`all_facets` — the property facets of the current extension
  with value markers and counts (Fig. 5.4 c; §5.4.4), optionally grouped
  by value class (Fig. 5.4 d) and hierarchically organized when
  sub-properties exist;
* :meth:`expand_path` — path expansion (Fig. 5.5 b): the markers at the
  end of a property path from the current extension;
* :meth:`refine` — the click transition: one condition in, one new
  state out, its intention extended by it (never an empty extension);
  :meth:`select_class` / ``_value`` / ``_values`` / ``_range`` build it;
* :meth:`back` — history navigation;
* :meth:`objects` — the right-frame content (§5.4.2).

The session works on the RDFS closure of the input graph, so subclass /
subproperty semantics are honoured (§5.2.1).

The facet computations here are *native* (direct index access, always
consistent).  What they derive from a state is remembered on that
state, stamped with the graph generation it was derived under
(:meth:`FacetedSession._per_state`): a state revisited by *back* finds
its markers, listings and facets again, any mutation of the graph
retires them, and a state that leaves the history takes them along.
Counting itself happens in one place, the store's
:meth:`~repro.rdf.graph.Graph.facet_counts`: a listing asks it for every
property of the state's own extension, a single facet for the last
step of its path, and a state's applicable properties are the steps of
its listing.  The three count operations (class markers, a listing, a
facet) reach their value through ``_per_state(..., stat="facets")``;
that call is the one seam where an analytics session opened with an
``endpoint`` takes its counts from the Tables 5.1/5.2 queries instead
(:class:`~repro.facets.sparql_backend.SparqlFacetEngine`, degrading on
failure).  The transitions below never depend on where counts come
from.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.caching import CacheStats
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS, SCHEMA_PREDICATES
from repro.rdf.rdfs import SchemaView
from repro.rdf.terms import IRI, Literal, Term
from repro.facets.intentions import (
    ClassCondition,
    Condition,
    Intention,
    PathRangeCondition,
    PathValueCondition,
    PathValueSetCondition,
)
from repro.facets.model import (
    AnyPath,
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

#: The :meth:`FacetedSession.cache_stats` lines of what the states
#: remember, with the name each reports under.
_MEMO_LINES = {"facets": "facet-counts", "answers": "answer-frames"}


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
        # How the lookups on their state went, per cache_stats line;
        # the values live on the states: _per_state.
        self._lookups = {stat: {"hits": 0, "misses": 0, "invalidations": 0}
                         for stat in _MEMO_LINES}
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

    def _recall(self, key: object) -> Any:
        """What the current state holds under ``key`` if it was derived
        in the graph's current generation, else ``None``.  Counts as
        nothing: the caller counts the hit it serves from it."""
        entry = self.state._memo.get(key)
        if entry is not None and entry[0] == self.graph.generation:
            return entry[1]
        return None

    def _per_state(self, key: object, build: Callable[[], Any],
                   stat: Optional[str] = None) -> Any:
        """``build()``, remembered on the current state under ``key``
        with the generation it was derived under.

        Dictionary ids are append-only, so within one generation what a
        state gives can only be recomputed to the same answer; any
        mutation invalidates conservatively.  ``stat`` names the
        :meth:`cache_stats` line the lookup counts under: ``"facets"``
        for the count operations (class markers, listings, single
        facets), ``"answers"`` for an analytics session's Answer
        Frames.  A value of this generation found here
        is a hit, anything else a miss — and an invalidation when a
        value of an older generation was found.  A ``build()`` that
        raises stores nothing.
        """
        memo, generation = self.state._memo, self.graph.generation
        entry = memo.get(key)
        fresh = entry is not None and entry[0] == generation
        if stat is not None:
            lookups = self._lookups[stat]
            lookups["hits" if fresh else "misses"] += 1
            if entry is not None and not fresh:
                lookups["invalidations"] += 1
        if not fresh:
            entry = memo[key] = (generation, build(), stat)
        return entry[1]

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
        """Hit/miss counters for everything the session is served from:
        what its states remember — the counts (``facets``) and the
        Answer Frames (``answers``), as many as the live history holds;
        nothing is ever evicted —, the store's SPARQL result cache, and
        the parse cache."""
        from repro.sparql import parse_cache_stats

        stats = {}
        for stat, name in _MEMO_LINES.items():
            size = sum(entry[2] == stat for state in self._history
                       for entry in state._memo.values())
            lookups = self._lookups[stat]
            stats[stat] = CacheStats(
                name, size, size, lookups["hits"], lookups["misses"],
                0, lookups["invalidations"])
        stats["sparql"] = self.graph.sparql_cache.stats()
        stats["parse"] = parse_cache_stats()
        return stats

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
        POS index rows of ``rdf:type``, taken for the classes the tree
        visits; a repeat on the same state is served from its memo.
        """
        ids, graph = self.state.ids, self.graph
        return list(self._per_state(
            ("classes", expanded),
            lambda: self._class_tree(
                lambda cls: len(ids & _instance_ids(graph, cls)), expanded),
            stat="facets"))

    def _class_tree(self, count_of: Callable[[IRI], int],
                    expanded: bool) -> Tuple[ClassMarker, ...]:
        """The markers of the maximal classes — with their subclass
        trees when ``expanded`` — counted by ``count_of``; a class
        without members is left out, its subclasses unvisited."""
        def build(classes: Iterable[IRI]) -> Tuple[ClassMarker, ...]:
            markers = []
            for cls in classes:
                count = count_of(cls)
                if count > 0:
                    children = build(sorted(
                        self.schema.subclasses(cls, direct=True),
                        key=lambda t: t.sort_key())) if expanded else ()
                    markers.append(ClassMarker(cls, count, children))
            return tuple(markers)

        return build(self.schema.maximal_classes())

    def select_class(self, cls: IRI) -> State:
        """Click a class marker: extension becomes ``Restrict(E, c)``."""
        return self.refine(ClassCondition(cls))

    # ------------------------------------------------------------------
    # Property-based transitions (§5.4.4)
    # ------------------------------------------------------------------
    def applicable_properties(self, include_inverse: bool = False) -> List[PropertyRef]:
        """Properties with at least one value on the current extension:
        the steps of the state's listing (:meth:`all_facets`), which
        stays on the state for the facets asked next."""
        return [facet.prop for facet in self.all_facets(include_inverse)]

    def all_facets(self, include_inverse: bool = False) -> List[PropertyFacet]:
        """Every applicable property's facet, from ONE shared scan of the
        extension (:meth:`_scan`): each marker counts
        ``|Restrict(E, p:v)|`` over the state's own extension, Table
        5.2's grouped count.  The listing is remembered on the state —
        what :meth:`facet` and :meth:`applicable_properties` then read —
        and each entry is identical to :meth:`facet`'s (the equivalence
        tests assert it)."""
        ids = self.state.ids
        return list(self._per_state(
            ("listing", include_inverse),
            lambda: self._scan(ids, include_inverse), stat="facets"))

    def _scan(self, ids: AbstractSet[int],
              include_inverse: bool) -> Tuple[PropertyFacet, ...]:
        """The listing of ``ids`` from one property-major pass over the
        POS index (:meth:`repro.rdf.graph.Graph.facet_counts`)."""
        graph = self.graph
        if include_inverse:
            # a literal is the source of no inverse edge (it would match
            # the values of a POS row); forward rows hold no literal anyway
            ids = graph.resource_ids(ids)
        decode = graph.decode_id
        schema_ids = {graph.encode_term(p) for p in SCHEMA_PREDICATES}
        directions = (False, True) if include_inverse else (False,)
        counters, having = graph.facet_counts(ids, [
            (pid, inverse) for pid in graph.all_predicate_ids()
            if pid not in schema_ids for inverse in directions])
        # Order by property, forward first, decode each property once,
        # drop non-IRI predicates and materialize the facets.
        sort_keys = graph.dictionary.sort_keys
        facets: List[PropertyFacet] = []
        for slot in sorted(counters, key=lambda s: (sort_keys[s[0]], s[1])):
            prop = decode(slot[0])
            if isinstance(prop, IRI):
                facets.append(self._materialize(
                    (PropertyRef(prop, inverse=slot[1]),), counters[slot],
                    having[slot]))
        return tuple(facets)

    def _materialize(self, path: Path, counter: Dict[int, int],
                     having: int) -> PropertyFacet:
        """The facet at ``path`` out of the kernel's counts, decoded and
        zipped into tuple markers: a forward counter is in marker order,
        an inverse one is sorted on the dictionary's sort-key memo."""
        dictionary = self.graph.dictionary
        value_ids: Iterable[int] = counter
        counts: Iterable[int] = counter.values()
        if path[-1].inverse:
            value_ids = sorted(counter, key=dictionary.sort_keys.__getitem__)
            counts = map(counter.__getitem__, value_ids)
        return PropertyFacet(path=path, count=having, values=tuple(map(
            tuple.__new__, repeat(ValueMarker),
            zip(map(dictionary.decode, value_ids), counts))))

    def facet(self, path: AnyPath) -> PropertyFacet:
        """The facet at ``path`` (a PropertyRef, IRI, or tuple thereof).

        A direct facet is read off the state's listing when it has one.
        Otherwise the *last* step of the path is counted by the store's
        scan kernel over the marker set that precedes it (the extension
        itself for a direct facet): one pass over that property's POS
        rows, whatever the number of distinct values (DESIGN.md design
        choice 4), remembered on the state for identical requests.
        """
        path = self._normalize_path(path)
        if len(path) == 1:
            for include_inverse in (False, True):
                listed = self._recall(("listing", include_inverse))
                for facet in listed or ():
                    if facet.path == path:
                        self._lookups["facets"]["hits"] += 1
                        return facet
        return self._per_state(
            ("facet", path), lambda: self._count_last_step(path), stat="facets")

    def _count_last_step(self, path: Path) -> PropertyFacet:
        graph = self.graph
        ids: AbstractSet[int] = self.state.ids
        if len(path) > 1:
            ids = _path_joins_ids(graph, ids, path[:-1])[-1]
        step = path[-1]
        if step.inverse:
            ids = graph.resource_ids(ids)
        # (a property the graph never saw has id None, and no POS rows)
        slot = (graph.encode_term(step.prop), step.inverse)
        counters, having = graph.facet_counts(ids, (slot,))
        return self._materialize(
            path, counters.get(slot, {}), having.get(slot, 0))

    def expand_path(self, path: AnyPath,
                    next_prop: Union[PropertyRef, IRI]) -> PropertyFacet:
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
    def refine(self, condition: Condition) -> State:
        """Take one click (§5.3, Table 5.1): the members from which the
        condition's path reaches one of its values stay (Eq. 5.1), the
        intention gains the condition, its words describe the state."""
        state, graph = self.state, self.graph
        return self._push(
            _restrict_by_path_ids(graph, state.ids, condition.path,
                                  condition.value_ids(graph)),
            state.intention.with_condition(condition), str(condition))

    def select_value(self, path: AnyPath, value: Term) -> State:
        """Click a value marker at the end of ``path`` (Eq. 5.1)."""
        return self.refine(PathValueCondition(self._normalize_path(path), value))

    def select_values(self, path: AnyPath, values: Iterable[Term]) -> State:
        """Click several values of the same facet (disjunctive selection)."""
        return self.refine(PathValueSetCondition(
            self._normalize_path(path),
            tuple(sorted(set(values), key=lambda t: t.sort_key()))))

    def select_range(self, path: AnyPath, comparator: str, value: Literal) -> State:
        """Apply a range filter on a (numeric/date) facet (Example 3)."""
        return self.refine(PathRangeCondition(
            self._normalize_path(path), comparator, value))

    def pivot_to(self, path: AnyPath) -> State:
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

    def select_interval(self, path: AnyPath, low: Literal, high: Literal) -> State:
        """Apply a closed interval filter (``low ≤ value ≤ high``)."""
        self.select_range(path, ">=", low)
        try:
            return self.select_range(path, "<=", high)
        except EmptyTransitionError:
            self.back()
            raise

    # ------------------------------------------------------------------
    def _normalize_path(self, path: AnyPath) -> Path:
        if isinstance(path, PropertyRef):
            return (path,)
        if isinstance(path, IRI):
            return (PropertyRef(path),)
        normalized = tuple(self._normalize_step(step) for step in path)
        if not normalized:
            raise ValueError("a property path needs at least one step")
        return normalized

    @staticmethod
    def _normalize_step(step: Union[PropertyRef, IRI]) -> PropertyRef:
        if isinstance(step, PropertyRef):
            return step
        if isinstance(step, IRI):
            return PropertyRef(step)
        raise TypeError(f"cannot use {step!r} as a property path step")
