"""An in-memory, dictionary-encoded, indexed RDF triple store.

The store interns every term into a :class:`~repro.rdf.dictionary.
TermDictionary` and keeps two permutation indexes (SPO, POS) as nested
dictionaries keyed on *int ids*, so every triple-pattern shape with a
bound subject or predicate resolves through at most two dictionary
lookups — on int keys, not on IRI strings.  A POS row is a set of
subject ids.  An SPO row holding one object is that object's bare id,
and a set only from its second object on: most subjects have one value
per predicate, and a one-element set costs over 200 bytes.  The
representation follows the content (a row is promoted on its second
object and demoted back on removal), and no caller sees it —
:meth:`Graph.objects_ids` answers a lone object as a one-tuple.

Terms are decoded back only at iteration boundaries; the decoded
instances are canonical (one object per id), so downstream equality
checks can short-circuit on identity.  It is the substrate for both the
SPARQL evaluator and the faceted-search engine.

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
  (per-(predicate, object) counts are O(1) for free via the POS index);
* per-predicate counts of the subjects with two or more objects (kept
  where an SPO row is promoted to a set and demoted back), so
  :meth:`Graph.facet_counts` knows when no member can have two values;
* the predicates whose POS row gained a value row since its last sort
  into marker order, which :meth:`Graph.facet_counts` then re-sorts.

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

from collections import Counter
from itertools import chain, repeat
from typing import (
    AbstractSet,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.caching import GenerationCache
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, IRI, Literal, Term, Triple, triple

#: Shared empty id set returned by the ``*_ids`` accessors on absence.
EMPTY_IDS: frozenset = frozenset()
#: Shared empty index row (never written).
_NO_ROW: Dict[int, Any] = {}
#: The term kinds of a triple's subject and of its object (RDF 1.1).
_SUBJECT_KINDS = frozenset({IRI, BNode})
_OBJECT_KINDS = frozenset({IRI, BNode, Literal})


def _objects(row) -> Collection[int]:
    """An SPO row as a collection: a lone object is stored as its id."""
    return (row,) if type(row) is int else row


def _column(rows: List[Collection[int]]) -> Tuple[List[int], List[int]]:
    """``rows`` concatenated, and the length of each."""
    return list(chain.from_iterable(rows)), list(map(len, rows))


#: A forward facet slot walks its members' SPO rows instead of the
#: property's POS rows when the property has more than ``WALK`` triples
#: a member (measured cold: DESIGN.md design choice 4).
WALK = 16

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
        #: subject → predicate → an object id, or a set of two or more.
        self._spo: Dict[int, Dict[int, Any]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._pred_count: Dict[int, int] = {}
        #: predicate → subjects whose SPO row holds two or more objects.
        self._multi_count: Dict[int, int] = {}
        #: predicates whose POS row is not in ``sort_keys`` order.
        self._unsorted: Set[int] = set()
        self._size = 0
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
    # sets/dicts/key views are the live internals — treat them as
    # read-only.
    # ------------------------------------------------------------------
    def store_for(self, pi: Optional[int], oi: Optional[int]) -> "Graph":
        """The store to probe a triple pattern with constant predicate
        id ``pi`` / object id ``oi`` against: this one (an
        :class:`~repro.rdf.overlay.ExtensionView` may hand back its
        base)."""
        return self

    def objects_ids(self, si, pi) -> Collection[int]:
        """Ids of ``{o | (s, p, o) ∈ G}`` for encoded subject/predicate:
        a one-tuple for a lone object, the live set otherwise.  Iterate
        it, take its ``len`` or test ``in``; combine it with method
        forms (``.intersection``, ``.union``), never with operators."""
        row = self._spo.get(si, _NO_ROW).get(pi, EMPTY_IDS)
        return (row,) if type(row) is int else row

    def objects_column(self, subjects: List[int], pi: int
                       ) -> Tuple[List[int], Optional[List[int]]]:
        """The :meth:`objects_ids` of each of ``subjects`` under ``pi``,
        concatenated in turn, and how many each has — ``None`` when
        each has exactly one."""
        spo = self._spo
        rows = [spo.get(s, _NO_ROW).get(pi, EMPTY_IDS) for s in subjects]
        if set(map(type, rows)) <= {int}:  # every row a lone object
            return rows, None
        return _column(list(map(_objects, rows)))

    def column(self, path: Tuple[int, ...], read: Callable[[], Any]) -> Any:
        """``read()``: the star's column at its id ``path`` from the root
        (``rdf:type``, the class, each step's predicate), kept nowhere."""
        return read()

    def subjects_ids(self, pi, oi):
        """Ids of ``{s | (s, p, o) ∈ G}`` for encoded predicate/object."""
        os_ = self._pos.get(pi)
        if os_ is None:
            return EMPTY_IDS
        return os_.get(oi, EMPTY_IDS)

    def spo_ids(self, si) -> Collection[int]:
        """The predicate ids of one encoded subject (a live key view);
        read a predicate's objects with :meth:`objects_ids`."""
        return self._spo.get(si, _NO_ROW).keys()

    def pos_ids(self, pi) -> Dict[int, Set[int]]:
        """The object → subject-ids map of one encoded predicate."""
        return self._pos.get(pi) or {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Add a triple; returns ``True`` if it was not already present."""
        return self.add_all(((s, p, o),)) == 1

    def _add_ids(self, si: int, pi: int, oi: int) -> bool:
        """Insert one encoded triple into the two indexes and account
        for it: size, per-predicate count and generation."""
        po = self._spo.get(si)
        if po is None:
            self._spo[si] = {pi: oi}
        else:
            objects = po.get(pi)
            if objects is None:
                po[pi] = oi
            elif type(objects) is int:
                if objects == oi:
                    return False
                po[pi] = {objects, oi}
                self._multi_count[pi] = self._multi_count.get(pi, 0) + 1
            elif oi in objects:
                return False
            else:
                objects.add(oi)
        pos = self._pos
        os_ = pos.get(pi)
        if os_ is None:
            os_ = pos[pi] = {}
        subjects = os_.get(oi)
        if subjects is None:
            subjects = os_[oi] = set()
            self._unsorted.add(pi)
        subjects.add(si)
        self._size += 1
        self._pred_count[pi] = self._pred_count.get(pi, 0) + 1
        self.generation += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples, each validated, encoded and inserted in
        turn; returns the number actually inserted."""
        encode, insert, before = self._dict.encode, self._add_ids, len(self)
        for s, p, o in triples:
            if (s.__class__ not in _SUBJECT_KINDS or p.__class__ is not IRI
                    or o.__class__ not in _OBJECT_KINDS):
                triple(s, p, o)  # raises on an ill-typed slot
            insert(encode(s), encode(p), encode(o))
        return len(self) - before

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
        """Remove one encoded triple from the two indexes and account
        for it (the per-predicate count is pruned at zero, like the
        index slots)."""
        spo, pos = self._spo, self._pos
        po = spo.get(si)
        if po is None:
            return False
        objects = po.get(pi)
        if objects == oi:  # the lone object: the row goes
            del po[pi]
            if not po:
                del spo[si]
        elif type(objects) is not set or oi not in objects:
            return False
        else:
            objects.remove(oi)
            if len(objects) == 1:
                po[pi] = objects.pop()
                self._multi_count[pi] -= 1
        os_ = pos[pi]
        subjects = os_[oi]
        subjects.remove(si)
        if not subjects:
            del os_[oi]
        if os_:
            self._pred_count[pi] -= 1
        else:  # the predicate's last triple
            del pos[pi], self._pred_count[pi]
        self._size -= 1
        self.generation += 1
        return True

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------
    def _encoded(self, pattern: Tuple[Optional[Term], ...]
                 ) -> Optional[List[Optional[int]]]:
        """``pattern`` in ids (``None`` stays a wildcard), or ``None``
        when it names a term the graph never saw: it matches nothing."""
        lookup = self._dict.lookup
        ids = [None if t is None else lookup(t) for t in pattern]
        if any(i is None and t is not None for i, t in zip(ids, pattern)):
            return None
        return ids

    def _decoded(self, pattern: Tuple[Optional[Term], ...],
                 slot: Optional[int] = None) -> Iterator[Any]:
        """:meth:`triples_ids` of the encoded ``pattern``, decoded; given
        a ``slot`` (0, 1, 2), the distinct terms in that position
        instead, de-duplicated on their ids."""
        ids, decode = self._encoded(pattern), self._dict.decode
        if ids is None:
            return
        if slot is None:
            for si, pi, oi in self.triples_ids(*ids):
                yield (decode(si), decode(pi), decode(oi))
            return
        seen: Set[int] = set()
        for match in self.triples_ids(*ids):
            ident = match[slot]
            if ident not in seen:
                seen.add(ident)
                yield decode(ident)

    def triples(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate all triples matching the pattern (``None`` = wildcard):
        :meth:`triples_ids` of the encoded pattern, decoded.  A term the
        graph never saw matches nothing.

        Yielded terms are the canonical (interned) instances, so
        consumers may compare them by identity first.
        """
        return self._decoded((s, p, o))

    def triples_ids(self, si: Optional[int] = None, pi: Optional[int] = None,
                    oi: Optional[int] = None) -> Iterator[Tuple[int, int, int]]:
        """The id twin of :meth:`triples`: the encoded triples matching
        an encoded pattern (``None`` = wildcard), in the same order.
        Nothing is decoded; an id the store never issued matches
        nothing."""
        if si is not None and pi is not None:  # a join probe: one row
            objects = _objects(self._spo.get(si, _NO_ROW).get(pi, EMPTY_IDS))
            if oi is None:
                for o in objects:
                    yield (si, pi, o)
            elif oi in objects:
                yield (si, pi, oi)
            return
        if si is not None:
            for p, row in self._spo.get(si, _NO_ROW).items():
                objects = _objects(row)
                for o in (objects if oi is None
                          else (oi,) if oi in objects else ()):
                    yield (si, p, o)
            return
        if pi is None and oi is None:
            for s, po in self._spo.items():
                for p, row in po.items():
                    if type(row) is int:
                        yield (s, p, row)
                    else:
                        for o in row:
                            yield (s, p, o)
            return
        if pi is None:  # the object alone: one POS probe per predicate
            for p, os_ in self._pos.items():
                subjects = os_.get(oi)
                if subjects:
                    for s in subjects:
                        yield (s, p, oi)
            return
        os_ = self._pos.get(pi, _NO_ROW)
        for o, subjects in (os_.items() if oi is None
                            else ((oi, os_.get(oi, EMPTY_IDS)),)):
            for s in subjects:
                yield (s, pi, o)

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        lookup = self._dict.lookup
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        return oi in _objects(self._spo.get(si, _NO_ROW).get(pi, EMPTY_IDS))

    def count(self, s=None, p=None, o=None) -> int:
        """Number of triples matching the pattern: :meth:`count_ids` of
        the encoded pattern.  A term the graph never saw matches
        nothing."""
        ids = self._encoded((s, p, o))
        return 0 if ids is None else self.count_ids(*ids)

    def count_ids(self, si: Optional[int] = None, pi: Optional[int] = None,
                  oi: Optional[int] = None) -> int:
        """The id twin of :meth:`count`, from index-set sizes: nothing
        is decoded, and an id the store never issued matches nothing.

        The patterns the join planner and the facet engine probe are
        O(1): the full size, ``(None, p, None)`` via the incremental
        per-predicate counters, and the ``(s, p, None)`` /
        ``(None, p, o)`` shapes via direct index-set sizes.  A bound
        subject alone sums its SPO row; an object alone sums one POS
        probe per predicate.
        """
        if si is None:
            if pi is None:
                if oi is None:
                    return self._size
                return sum(len(self.subjects_ids(pred, oi))
                           for pred in self.all_predicate_ids())
            if oi is None:
                return self._pred_count.get(pi, 0)
            return len(self.subjects_ids(pi, oi))
        if pi is not None:
            objects = self.objects_ids(si, pi)
            return len(objects) if oi is None else int(oi in objects)
        rows = [self.objects_ids(si, p) for p in self.spo_ids(si)]
        if oi is None:
            return sum(map(len, rows))
        return sum(oi in objects for objects in rows)

    def predicate_counts(self) -> Dict[Term, int]:
        """Triple count per predicate — the O(1)-maintained statistics."""
        decode = self._dict.decode
        return {decode(pi): n for pi, n in self._pred_count.items()}

    def facet_counts(self, ids: AbstractSet[int],
                     slots: Collection[Tuple[int, bool]]) -> FacetCounts:
        """The value counts over the extension ``ids`` of every
        ``(property id, inverse)`` slot in ``slots``; a slot without a
        value on ``ids`` is left out.  A forward counter comes in marker
        order (``dictionary.sort_keys``), the order of the POS rows.

        Forward, every value row is one set intersection ``ids ∩
        subjects`` — the count of that value marker — executed at C
        speed (no set built when a subset test finds the row inside
        ``ids``), and the union of the intersections gives the
        having-the-property count — or, when no subject has two values
        of the property, the sum of the counts, no union built.  With
        more than :data:`WALK` triples of the property a member, the
        members' SPO rows are read instead, and the values found sorted.
        An inverse slot reads the POS rows the other way: the subjects
        reached from the members of ``ids`` that occur as values (in no
        order), and how many members do (``ids`` must then hold no
        literal — a literal is the source of no edge).
        """
        counters: Dict[Tuple[int, bool], Dict[int, int]] = {}
        having: Dict[Tuple[int, bool], int] = {}
        order = self._dict.sort_keys.__getitem__
        for slot in slots:
            pi, inverse = slot
            if pi not in self._pos:
                continue
            counter: Dict[int, int] = {}
            if not inverse and WALK * len(ids) < self._pred_count[pi]:
                held = list(filter(None, map(self.objects_ids, ids, repeat(pi))))
                found = Counter(chain.from_iterable(held))
                counter = {value_id: found[value_id]
                           for value_id in sorted(found, key=order)}
                with_property = len(held)
            elif inverse:
                with_property = 0
                for value_id, subjects in self.pos_ids(pi).items():
                    if value_id in ids:
                        with_property += 1
                        for sid in subjects:
                            counter[sid] = counter.get(sid, 0) + 1
            else:
                if pi in self._unsorted:  # in place: pos_ids hands it out
                    self._unsorted.remove(pi)
                    rows = self._pos[pi]
                    for value_id in sorted(rows, key=order):
                        rows[value_id] = rows.pop(value_id)
                multi = self._multi_count.get(pi)
                havers: Set[int] = set()
                for value_id, subjects in self.pos_ids(pi).items():
                    members = subjects if subjects <= ids else ids & subjects
                    if members:
                        counter[value_id] = len(members)
                        if multi:
                            havers |= members
                with_property = len(havers) if multi else sum(counter.values())
            if counter:
                counters[slot] = counter
                having[slot] = with_property
        return counters, having

    # ------------------------------------------------------------------
    # Single-slot accessors
    # ------------------------------------------------------------------
    def subjects(self, p=None, o=None) -> Iterator[Term]:
        return self._decoded((None, p, o), 0)

    def predicates(self, s=None, o=None) -> Iterator[Term]:
        return self._decoded((s, None, o), 1)

    def objects(self, s=None, p=None) -> Iterator[Term]:
        return self._decoded((s, p, None), 2)

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
        the id-level twin of :meth:`all_subjects`."""
        return self._spo.keys()

    def resource_ids(self, ids: AbstractSet[int]) -> Set[int]:
        """``ids`` without its literals (a literal is the source of no
        edge): the subjects among them are kept by one set
        intersection, and only the others are decoded."""
        kept = self._subjects_among(ids)
        decode = self._dict.decode
        kept.update(i for i in ids - kept if not isinstance(decode(i), Literal))
        return kept

    def _subjects_among(self, ids: AbstractSet[int]) -> Set[int]:
        """The members of ``ids`` that are the subject of a triple."""
        return self._spo.keys() & ids

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

    def all_resources(self) -> Set[Term]:
        """All IRIs and blank nodes appearing as subject or object."""
        nodes = self.all_subjects()
        nodes.update(
            o for o in self.all_objects() if isinstance(o, (IRI, BNode))
        )
        return nodes

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
        index maps copied down to the innermost set (a bare-id row as
        is), the statistics and the blank-node counter."""
        self._dict = dictionary
        self._spo, self._pos = (
            {key: {inner: ids if type(ids) is int else set(ids)
                   for inner, ids in row.items()}
             for key, row in index.items()}
            for index in (source._spo, source._pos))
        self._pred_count = dict(source._pred_count)
        self._multi_count = dict(source._multi_count)
        self._unsorted = set(source._unsorted)
        self._size = source._size
        self.generation = 1 if self._size else 0

    def union(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.add_all(other.triples())
        return result
