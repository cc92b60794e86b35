"""An in-memory, dictionary-encoded, indexed RDF triple store.

The store interns every term into a :class:`~repro.rdf.dictionary.
TermDictionary` and keeps two permutation indexes (SPO, POS) as nested
dictionaries of *int-id* sets, so every triple-pattern shape with a
bound subject or predicate resolves through at most two dictionary
lookups — on int keys, not on IRI strings.  Terms are decoded back only
at iteration boundaries; the decoded instances are canonical (one
object per id), so downstream equality checks can short-circuit on
identity.  It is the substrate for both the SPARQL evaluator and the
faceted-search engine.

There is no OSP index.  A pattern keyed on the object alone —
``triples(None, None, o)``, ``all_objects()``, inverse-property
discovery — reads POS instead: one ``pos[p].get(o)`` probe (or one key
view) per predicate.  A knowledge graph has few predicates and many
objects, so that loop is short, while an OSP map would index every
triple a third time (nearly half the index bytes, with almost every
inner set a singleton).  The price grows with the number of predicates;
``benchmarks/bench_ablation_indexes.py`` times it at 1 000.

On top of the indexes the store maintains, incrementally on add/remove:

* ``generation`` — a counter bumped by every successful mutation; the
  query/facet caches stamp their entries with it, which makes staleness
  detection O(1) (see :mod:`repro.caching`);
* per-predicate triple counts, so ``count(None, p, None)`` — the join
  planner's selectivity probe — is O(1) instead of an extent scan
  (per-(predicate, object) counts are O(1) for free via the POS index).

Pattern matching uses ``None`` as a wildcard::

    g.triples(None, RDF.type, EX.Laptop)   # all laptops
    g.objects(item, EX.price)              # prices of one item

Both directions of every lookup, and both halves of every mutation,
have an id-level form (:meth:`Graph._add_ids`, :meth:`Graph.facet_counts`,
the ``*_ids`` accessors) that the term-level API is a thin boundary
over.  :class:`~repro.rdf.sharding.ShardedGraph` composes N plain
``Graph`` slices through exactly those forms, so there is one index
implementation whatever the layout.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Collection,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
)

from repro.caching import GenerationCache
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, IRI, Literal, Term, Triple, triple

#: Shared empty id set returned by the ``*_ids`` accessors on absence.
EMPTY_IDS: frozenset = frozenset()


#: ``(counters, having)`` of one facet scan: per ``(property id,
#: inverse)`` slot, the count of every value id, and the number of
#: extension members having the property at all.
FacetCounts = Tuple[Dict[Tuple[int, bool], Dict[int, int]],
                    Dict[Tuple[int, bool], int]]


class Graph:
    """A mutable set of RDF triples with SPO/POS indexes; object-keyed
    reads go through the POS rows (see the module docstring)."""

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._dict = TermDictionary()
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._pred_count: Dict[int, int] = {}
        self._size = 0
        self._bnode_counter = 0
        #: Bumped on every successful mutation; stamps cache entries.
        self.generation = 0
        #: Generation-stamped SPARQL result cache (see repro.sparql).
        self.sparql_cache = GenerationCache(maxsize=128, name="sparql-results")
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Dictionary boundary
    # ------------------------------------------------------------------
    @property
    def dictionary(self):
        """The term dictionary (read-only use; append-only structure)."""
        return self._dict

    def encode_term(self, term: Term) -> Optional[int]:
        """The id of ``term``, or ``None`` if it never entered the graph."""
        return self._dict.lookup(term)

    def encode_terms(self, terms: Iterable[Term]) -> Set[int]:
        """Encode many terms, silently dropping unknown ones (which by
        definition match nothing in the graph)."""
        lookup = self._dict.lookup
        out = set()
        for term in terms:
            ident = lookup(term)
            if ident is not None:
                out.add(ident)
        return out

    def decode_id(self, ident) -> Term:
        return self._dict.decode(ident)

    def decode_ids(self, ids) -> Set[Term]:
        return self._dict.decode_all(ids)

    # ------------------------------------------------------------------
    # Id-level index views (hot paths: facets, joins).  The returned
    # sets/dicts are the live internals — treat them as read-only.
    # ------------------------------------------------------------------
    def objects_ids(self, si, pi):
        """Ids of ``{o | (s, p, o) ∈ G}`` for encoded subject/predicate."""
        po = self._spo.get(si)
        if po is None:
            return EMPTY_IDS
        return po.get(pi, EMPTY_IDS)

    def subjects_ids(self, pi, oi):
        """Ids of ``{s | (s, p, o) ∈ G}`` for encoded predicate/object."""
        os_ = self._pos.get(pi)
        if os_ is None:
            return EMPTY_IDS
        return os_.get(oi, EMPTY_IDS)

    def spo_ids(self, si) -> Dict[int, Set[int]]:
        """The predicate → object-ids map of one encoded subject."""
        return self._spo.get(si) or {}

    def pos_ids(self, pi) -> Dict[int, Set[int]]:
        """The object → subject-ids map of one encoded predicate."""
        return self._pos.get(pi) or {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Add a triple; returns ``True`` if it was not already present."""
        s, p, o = triple(s, p, o)
        encode = self._dict.encode
        return self._add_ids(encode(s), encode(p), encode(o))

    def _add_ids(self, si: int, pi: int, oi: int) -> bool:
        """Insert one encoded triple into the two indexes."""
        spo = self._spo
        po = spo.get(si)
        if po is None:
            po = spo[si] = {}
        objects = po.get(pi)
        if objects is None:
            objects = po[pi] = set()
        if oi in objects:
            return False
        objects.add(oi)
        pos = self._pos
        os_ = pos.get(pi)
        if os_ is None:
            os_ = pos[pi] = {}
        subjects = os_.get(oi)
        if subjects is None:
            subjects = os_[oi] = set()
        subjects.add(si)
        self._mutated(pi, 1)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        added = 0
        for s, p, o in triples:
            if self.add(s, p, o):
                added += 1
        return added

    def remove(self, s: Term, p: Term, o: Term) -> bool:
        """Remove one triple; returns ``True`` if it was present.

        Emptied index slots are pruned eagerly, so add → remove cycles
        (an update batch loaded and withdrawn again) leave the index
        maps exactly as they were — no unbounded slot growth.
        """
        lookup = self._dict.lookup
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        return self._remove_ids(si, pi, oi)

    def _remove_ids(self, si: int, pi: int, oi: int) -> bool:
        """Remove one encoded triple from the two indexes."""
        spo, pos = self._spo, self._pos
        po = spo.get(si)
        if po is None:
            return False
        objects = po.get(pi)
        if objects is None or oi not in objects:
            return False
        objects.remove(oi)
        if not objects:
            del po[pi]
            if not po:
                del spo[si]
        os_ = pos[pi]
        subjects = os_[oi]
        subjects.remove(si)
        if not subjects:
            del os_[oi]
            if not os_:
                del pos[pi]
        self._mutated(pi, -1)
        return True

    def _mutated(self, pi: int, delta: int) -> None:
        """Account for one triple of predicate ``pi`` added (+1) or
        removed (-1): size, per-predicate count (pruned at zero, like
        the index slots) and generation."""
        self._size += delta
        remaining = self._pred_count.get(pi, 0) + delta
        if remaining:
            self._pred_count[pi] = remaining
        else:
            del self._pred_count[pi]
        self.generation += 1

    def new_bnode(self) -> BNode:
        """Mint a blank node with a label unique within this graph."""
        self._bnode_counter += 1
        return BNode(f"b{self._bnode_counter}")

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------
    def triples(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate all triples matching the pattern (``None`` = wildcard).

        Yielded terms are the canonical (interned) instances, so
        consumers may compare them by identity first.
        """
        lookup = self._dict.lookup
        decode = self._dict.decode
        if s is not None:
            si = lookup(s)
            if si is None:
                return
            po = self._spo.get(si)
            if po is None:
                return
            if p is not None:
                pi = lookup(p)
                objects = po.get(pi) if pi is not None else None
                if objects is None:
                    return
                if o is not None:
                    oi = lookup(o)
                    if oi is not None and oi in objects:
                        yield (s, p, o)
                    return
                for oi in objects:
                    yield (s, p, decode(oi))
                return
            if o is not None:
                oi = lookup(o)
                if oi is None:
                    return
                for pi, objects in po.items():
                    if oi in objects:
                        yield (s, decode(pi), o)
                return
            for pi, objects in po.items():
                pred = decode(pi)
                for oi in objects:
                    yield (s, pred, decode(oi))
            return
        if p is not None:
            pi = lookup(p)
            if pi is None:
                return
            os_ = self._pos.get(pi)
            if os_ is None:
                return
            if o is not None:
                oi = lookup(o)
                if oi is None:
                    return
                for si in os_.get(oi, EMPTY_IDS):
                    yield (decode(si), p, o)
                return
            for oi, subjects in os_.items():
                obj = decode(oi)
                for si in subjects:
                    yield (decode(si), p, obj)
            return
        if o is not None:
            oi = lookup(o)
            if oi is None:
                return
            for pi, os_ in self._pos.items():
                subjects = os_.get(oi)
                if subjects:
                    pred = decode(pi)
                    for si in subjects:
                        yield (decode(si), pred, o)
            return
        for si, po in self._spo.items():
            subj = decode(si)
            for pi, objects in po.items():
                pred = decode(pi)
                for oi in objects:
                    yield (subj, pred, decode(oi))

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        lookup = self._dict.lookup
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        po = self._spo.get(si)
        if po is None:
            return False
        return oi in po.get(pi, EMPTY_IDS)

    def count(self, s=None, p=None, o=None) -> int:
        """Number of triples matching the pattern, from index-set sizes:
        nothing is decoded.

        The patterns the join planner and the facet engine probe are
        O(1): the full size, ``(None, p, None)`` via the incremental
        per-predicate counters, and the ``(s, p, None)`` /
        ``(None, p, o)`` shapes via direct index-set sizes.  A bound
        subject alone sums its SPO row; an object alone sums one POS
        probe per predicate.
        """
        if s is None and p is None and o is None:
            return self._size
        lookup = self._dict.lookup
        si = None if s is None else lookup(s)
        pi = None if p is None else lookup(p)
        oi = None if o is None else lookup(o)
        if ((si is None and s is not None) or (pi is None and p is not None)
                or (oi is None and o is not None)):
            return 0
        if s is None:
            if p is None:
                return sum(len(self.subjects_ids(pred, oi))
                           for pred in self.all_predicate_ids())
            if o is None:
                return self._pred_count.get(pi, 0)
            return len(self.subjects_ids(pi, oi))
        if p is not None:
            objects = self.objects_ids(si, pi)
            return len(objects) if o is None else int(oi in objects)
        rows = self.spo_ids(si).values()
        if o is None:
            return sum(map(len, rows))
        return sum(oi in objects for objects in rows)

    def predicate_counts(self) -> Dict[Term, int]:
        """Triple count per predicate — the O(1)-maintained statistics."""
        decode = self._dict.decode
        return {decode(pi): n for pi, n in self._pred_count.items()}

    def facet_counts(self, ids: AbstractSet[int],
                     slots: Collection[Tuple[int, bool]]) -> FacetCounts:
        """The value counts over the extension ``ids`` of every
        ``(property id, inverse)`` slot in ``slots``, each from one pass
        over the property's POS rows; a slot without a value on ``ids``
        is left out.

        Forward, every value row is one set intersection ``ids ∩
        subjects`` — the count of that value marker — executed at C
        speed, and the union of the intersections gives the
        having-the-property count.  An inverse slot reads the same rows
        the other way: the subjects reached from the members of ``ids``
        that occur as values, and how many members do (``ids`` must then
        hold no literal — a literal is the source of no edge).
        """
        counters: Dict[Tuple[int, bool], Dict[int, int]] = {}
        having: Dict[Tuple[int, bool], int] = {}
        for slot in slots:
            rows = self._pos.get(slot[0])
            if rows is None:
                continue
            counter: Dict[int, int] = {}
            if slot[1]:
                with_property = 0
                for value_id, subjects in rows.items():
                    if value_id in ids:
                        with_property += 1
                        for sid in subjects:
                            counter[sid] = counter.get(sid, 0) + 1
            else:
                havers: Set[int] = set()
                for value_id, subjects in rows.items():
                    members = ids & subjects
                    if members:
                        counter[value_id] = len(members)
                        havers |= members
                with_property = len(havers)
            if counter:
                counters[slot] = counter
                having[slot] = with_property
        return counters, having

    # ------------------------------------------------------------------
    # Single-slot accessors
    # ------------------------------------------------------------------
    def subjects(self, p=None, o=None) -> Iterator[Term]:
        seen = set()
        for s, _, _ in self.triples(None, p, o):
            if s not in seen:
                seen.add(s)
                yield s

    def predicates(self, s=None, o=None) -> Iterator[Term]:
        seen = set()
        for _, p, _ in self.triples(s, None, o):
            if p not in seen:
                seen.add(p)
                yield p

    def objects(self, s=None, p=None) -> Iterator[Term]:
        seen = set()
        for _, _, o in self.triples(s, p, None):
            if o not in seen:
                seen.add(o)
                yield o

    def value(self, s=None, p=None, o=None) -> Optional[Term]:
        """The single term filling the one ``None`` slot, or ``None``."""
        for t in self.triples(s, p, o):
            if s is None:
                return t[0]
            if p is None:
                return t[1]
            return t[2]
        return None

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------
    def all_subjects(self) -> Set[Term]:
        return self._dict.decode_all(self.all_subject_ids())

    def all_subject_ids(self):
        """The encoded subject ids as a live view (treat as read-only) —
        the id-level twin of :meth:`all_subjects` for the batch engine."""
        return self._spo.keys()

    def all_predicates(self) -> Set[Term]:
        return self._dict.decode_all(self.all_predicate_ids())

    def all_predicate_ids(self):
        """The encoded predicate ids as a live view (treat as read-only)
        — lets the shared-scan facet counter pivot property-major over
        the POS index instead of walking every subject's SPO row."""
        return self._pos.keys()

    def all_objects(self) -> Set[Term]:
        """The objects: the union of the POS row keys."""
        return self._dict.decode_all(set().union(*self._pos.values()))

    def all_terms(self) -> Set[Term]:
        return self.all_subjects() | self.all_predicates() | self.all_objects()

    def all_resources(self) -> Set[Term]:
        """All IRIs and blank nodes appearing as subject or object."""
        nodes = self.all_subjects()
        nodes.update(
            o for o in self.all_objects() if isinstance(o, (IRI, BNode))
        )
        return nodes

    def all_literals(self) -> Set[Literal]:
        return {o for o in self.all_objects() if isinstance(o, Literal)}

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return len(self) == len(other) and all(t in other for t in self)

    def __repr__(self):
        return f"<Graph with {self._size} triples>"

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def _new_like(self, triples: Optional[Iterable[Triple]] = None) -> "Graph":
        """An empty (or pre-filled) store with this one's layout.

        Subclasses override to preserve their partitioning, so derived
        graphs (copies — the RDFS closure starts from one — differences,
        subject filters) keep the concrete store class.
        """
        return type(self)(triples)

    def copy(self) -> "Graph":
        """An independent twin with the same ids, built in id space: no
        term is decoded, validated or interned again.  The dictionary is
        cloned, not shared, so a term only the twin goes on to intern
        stays unknown to :meth:`encode_term` here."""
        twin = self._new_like()
        twin._copy_from(self, self._dict.clone())
        return twin

    def _copy_from(self, source: "Graph", dictionary: TermDictionary) -> None:
        """Take over ``source``'s content under ``dictionary``: the two
        index maps copied down to the innermost set, the statistics and
        the blank-node counter."""
        self._dict = dictionary
        self._spo, self._pos = (
            {key: {inner: set(ids) for inner, ids in row.items()}
             for key, row in index.items()}
            for index in (source._spo, source._pos))
        self._pred_count = dict(source._pred_count)
        self._size = source._size
        self._bnode_counter = source._bnode_counter
        self.generation = 1 if self._size else 0

    def union(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.add_all(other.triples())
        return result

    def difference(self, other: "Graph") -> "Graph":
        return self._new_like(t for t in self if t not in other)

    def filter_subjects(self, subjects: Set[Term]) -> "Graph":
        """The sub-graph of triples whose subject is in ``subjects``."""
        return self._new_like(t for t in self if t[0] in subjects)
