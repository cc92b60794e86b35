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

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
    _path_joins_ids,
    joins,
    path_joins,
    restrict,
    restrict_by_path,
    restrict_to_class,
)


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
        # applicable properties / the individuals pool: keyed on
        # (operation, extension, ...), stamped with the graph generation,
        # so any mutation invalidates, and *back* navigation re-serves
        # earlier states for free.  Built before the initial state, which
        # already wants the memoized individuals.
        self._facet_cache = GenerationCache(maxsize=512, name="facet-counts")
        # Generation-stamped memo for the individuals pool.  A private
        # slot, not a _facet_cache entry: the facet cache's invariant is
        # "only fresh *facet* values, nothing else" — tests assert it
        # stays empty when every count degrades.
        self._individuals_memo: Optional[Tuple[int, FrozenSet[Term]]] = None
        # Derived forms of the current extension (its id-space encoding;
        # subclasses add theirs), memoized per (generation, state):
        # _per_state.
        self._state_memo: Tuple[int, Optional[FrozenSet[Term]], Dict[str, object]] = (
            -1, None, {})
        if results is not None:
            seeds = frozenset(results)
            intention = Intention(seeds=tuple(sorted(seeds, key=lambda t: t.sort_key())))
            initial = State(seeds, intention, "results")
        else:
            initial = State(self._individuals(), Intention(), "initial")
        self._history: List[State] = [initial]

    def _individuals(self) -> FrozenSet[Term]:
        """Every typed subject that is not a class or a property.

        Computed at the id level — the subject sets of the ``rdf:type``
        POS row, minus the subjects typed as classes or properties — and
        memoized per graph generation (restart-from-scratch transitions
        and AF reloads re-ask for this constantly)."""
        graph = self.graph
        generation = graph.generation
        memo = self._individuals_memo
        if memo is not None and memo[0] == generation:
            return memo[1]
        subject_ids: Set[int] = set()
        type_id = graph.encode_term(RDF.type)
        if type_id is not None:
            for ids in graph.pos_ids(type_id).values():
                subject_ids |= ids
            for special in (RDFS.Class, RDF.Property):
                special_id = graph.encode_term(special)
                if special_id is not None:
                    subject_ids -= graph.subjects_ids(type_id, special_id)
        individuals = frozenset(graph.decode_ids(subject_ids))
        self._individuals_memo = (generation, individuals)
        return individuals

    def _per_state(self, name: str, build):
        """``build()``, memoized under ``name`` per (generation, state).

        Dictionary ids are append-only, so within one generation a
        derived form of the extension can only be recomputed to the same
        answer; a new state carries a new extension frozenset (compared
        by identity — states reuse their frozensets), and any mutation
        invalidates conservatively.
        """
        generation, extension = self.graph.generation, self.extension
        memo = self._state_memo
        if memo[0] != generation or memo[1] is not extension:
            memo = self._state_memo = (generation, extension, {})
        derived = memo[2]
        if name not in derived:
            derived[name] = build()
        return derived[name]

    def _extension_ids(self) -> FrozenSet[int]:
        """The current extension in id space with literals dropped —
        the shard kernels' scan input.  At the million-triple scale the
        re-encode dominates the scan itself, hence once per state."""
        def build():
            decode = self.graph.decode_id
            return frozenset(
                eid
                for eid in self.graph.encode_terms(self.extension)
                if not isinstance(decode(eid), Literal)
            )

        return self._per_state("ids", build)

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

    def _push(self, extension: Set[Term], intention: Intention,
              description: str) -> State:
        if not extension:
            raise EmptyTransitionError(
                f"transition '{description}' would produce an empty result"
            )
        state = State(frozenset(extension), intention, description)
        self._history.append(state)
        return state

    # ------------------------------------------------------------------
    # Class-based transitions (§5.4.3)
    # ------------------------------------------------------------------
    def class_markers(self, expanded: bool = False) -> List[ClassMarker]:
        """Top-level class markers; ``expanded`` unfolds the hierarchy
        (reflexive-transitive reduction, Fig. 5.4 b).

        Counts are id-level intersections of the (once-encoded)
        extension with the POS index rows of ``rdf:type``; results are
        served from the generation-stamped cache on repeat.
        """
        key = ("classes", self.extension, expanded)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return list(cached)
        graph = self.graph
        extension_ids = graph.encode_terms(self.extension)
        type_id = graph.encode_term(RDF.type)

        def build(cls: IRI, depth: bool) -> Optional[ClassMarker]:
            cls_id = graph.encode_term(cls)
            count = 0
            if type_id is not None and cls_id is not None:
                instances = graph.subjects_ids(type_id, cls_id)
                count = len(extension_ids & instances)
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
        extension = restrict_to_class(self.graph, self.extension, cls)
        intention = self.state.intention.with_class(cls)
        return self._push(extension, intention, f"class {cls.local_name()}")

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
        key = ("props", self.extension, include_inverse)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return list(cached)
        graph = self.graph
        decode = graph.decode_id
        forward_ids: Set[int] = set()
        inverse_ids: Set[int] = set()
        for eid in graph.encode_terms(self.extension):
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
        """Every applicable property's facet from ONE shared scan.

        Computing the left frame facet-by-facet walks the extension once
        per property (N scans); this pivots property-major over the POS
        index instead: for each predicate, every value row is one set
        intersection ``extension ∩ subjects`` — the count of that value
        marker — executed at C speed, with the union of the intersections
        giving the having-the-property count.  The per-property results
        are identical to :meth:`facet` (the equivalence tests assert it)
        and are seeded into the generation-stamped cache under the same
        keys, so subsequent single-facet and listing requests are O(1)."""
        key = ("all-facets", self.extension, include_inverse)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return list(cached)
        graph = self.graph
        decode = graph.decode_id
        schema_ids = {
            pid
            for pid in (graph.encode_term(p) for p in self._SCHEMA_PROPS)
            if pid is not None
        }
        # (prop_id, inverse) → value_id → count, plus the per-property
        # count of extension members having the property at all.
        counters: Dict[Tuple[int, bool], Dict[int, int]]
        having: Dict[Tuple[int, bool], int]
        if graph.num_shards > 1:
            # The sharded plane: per-shard kernels over the POS slices
            # (fanned out across workers when the executor is active),
            # fed the memoized id-space extension.  Merged counters are
            # byte-identical to the flat scan below — the shard
            # invariance tests pin it.
            counters, having = graph.facet_counts(
                self._extension_ids(), schema_ids, include_inverse)
        else:
            # Literal members contribute to no facet (they have no
            # forward edges, and _compute_facet skips them for inverse
            # ones too).
            ext_set = {
                eid
                for eid in graph.encode_terms(self.extension)
                if not isinstance(decode(eid), Literal)
            }
            counters = {}
            having = {}
            for pid in graph.all_predicate_ids():
                if pid in schema_ids:
                    continue
                rows = graph.pos_ids(pid)
                counter: Dict[int, int] = {}
                havers: Set[int] = set()
                for value_id, subjects in rows.items():
                    members = ext_set & subjects
                    if members:
                        counter[value_id] = len(members)
                        havers |= members
                if counter:
                    counters[(pid, False)] = counter
                    having[(pid, False)] = len(havers)
                if include_inverse:
                    counter = {}
                    with_property = 0
                    for value_id, subjects in rows.items():
                        if value_id in ext_set:
                            with_property += 1
                            for sid in subjects:
                                counter[sid] = counter.get(sid, 0) + 1
                    if counter:
                        counters[(pid, True)] = counter
                        having[(pid, True)] = with_property
        # Decode each property once, drop non-IRI predicates, order like
        # applicable_properties, and materialize the facets.
        refs: List[Tuple[PropertyRef, Tuple[int, bool]]] = []
        for slot in counters:
            prop = decode(slot[0])
            if isinstance(prop, IRI):
                refs.append((PropertyRef(prop, inverse=slot[1]), slot))
        refs.sort(key=lambda pair: (pair[0].prop.sort_key(), pair[0].inverse))
        facets: List[PropertyFacet] = []
        for ref, slot in refs:
            markers = [
                ValueMarker(decode(vid), count)
                for vid, count in counters[slot].items()
            ]
            markers.sort(key=lambda marker: marker.value.sort_key())
            facet = PropertyFacet(
                path=(ref,), count=having[slot], values=tuple(markers))
            facets.append(facet)
            self._facet_cache.put(("facet", self.extension, (ref,)),
                                  generation, facet)
        self._facet_cache.put(
            ("props", self.extension, include_inverse),
            generation, tuple(ref for ref, _ in refs),
        )
        self._facet_cache.put(key, generation, tuple(facets))
        return facets

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
        key = ("facet", self.extension, path)
        generation = self.graph.generation
        cached = self._facet_cache.get(key, generation, default=None)
        if cached is not None:
            return cached
        facet = self._compute_facet(path)
        self._facet_cache.put(key, generation, facet)
        return facet

    def _compute_facet(self, path: Path) -> PropertyFacet:
        graph = self.graph
        extension_ids = graph.encode_terms(self.extension)
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
        extension = restrict_by_path(self.graph, self.extension, path, value)
        intention = self.state.intention.with_condition(
            PathValueCondition(path, value)
        )
        label = value.local_name() if isinstance(value, IRI) else str(value)
        description = f"{'/'.join(s.name for s in path)} = {label}"
        return self._push(extension, intention, description)

    def select_values(self, path, values: Iterable[Term]) -> State:
        """Click several values of the same facet (disjunctive selection)."""
        path = self._normalize_path(path)
        values = set(values)
        extension: Set[Term] = set()
        for value in values:
            extension |= restrict_by_path(self.graph, self.extension, path, value)
        intention = self.state.intention.with_condition(
            PathValueSetCondition(path, tuple(sorted(values, key=lambda t: t.sort_key())))
        )
        description = f"{'/'.join(s.name for s in path)} in {{{len(values)} values}}"
        return self._push(extension, intention, description)

    def select_range(self, path, comparator: str, value: Literal) -> State:
        """Apply a range filter on a (numeric/date) facet (Example 3)."""
        path = self._normalize_path(path)
        marker_sets = path_joins(self.graph, self.extension, path)
        matching = {
            v
            for v in marker_sets[-1]
            if _literal_passes(v, comparator, value)
        }
        extension = (
            restrict_by_path(self.graph, self.extension, path, matching)
            if matching
            else set()
        )
        intention = self.state.intention.with_condition(
            PathRangeCondition(path, comparator, value)
        )
        description = f"{'/'.join(s.name for s in path)} {comparator} {value}"
        return self._push(extension, intention, description)

    def pivot_to(self, path) -> State:
        """Switch entity type (§5.2.1 differentiator iii): the new
        extension is ``Joins(E, path)`` — e.g. pivot from the current
        laptops to *their manufacturers* and keep exploring from there.
        """
        path = self._normalize_path(path)
        extension: Set[Term] = set(self.extension)
        for step in path:
            extension = joins(self.graph, extension, step)
        intention = self.state.intention.with_pivot(path)
        description = "pivot to " + "/".join(s.name for s in path)
        return self._push(extension, intention, description)

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


def _literal_passes(term: Term, comparator: str, value: Literal) -> bool:
    from repro.sparql.errors import ExpressionError
    from repro.sparql.functions import compare

    try:
        return compare(comparator, term, value)
    except ExpressionError:
        return False
