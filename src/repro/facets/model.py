"""The core faceted-search model over RDF (§5.2.1, §5.3).

Implements the formal machinery:

* :func:`restrict` / :func:`joins` — the ``Restrict(E, p:v)``,
  ``Restrict(E, p:vset)``, ``Restrict(E, c)`` and ``Joins(E, p)``
  operations of §5.3.1, with inverse-property support (``p⁻¹``);
* :data:`PropertyRef` / :data:`Path` — a transition's property step
  and a path of them; the step type is HIFUN's
  :class:`~repro.hifun.attributes.Attribute` under the facet model's
  name, so a path is a composition's ``steps()``;
* :class:`State` — an interaction state with *extension* (set of
  resources) and *intention* (query);
* transition markers — :class:`ClassMarker` (Fig. 5.4 a/b),
  :class:`PropertyFacet` with :class:`ValueMarker` rows (Fig. 5.4 c/d)
  and path-expanded marker columns (Fig. 5.5), all carrying count
  information so the UI never offers an empty result.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (AbstractSet, Collection, Dict, FrozenSet, Iterable, List,
                    NamedTuple, Optional, Set, Tuple, Union)

from repro.rdf.graph import EMPTY_IDS, Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Literal, Term, display_name
from repro.hifun.attributes import Attribute
from repro.facets.intentions import Intention


#: A property usable in a transition, optionally inverted (``p⁻¹``).
PropertyRef = Attribute


#: A property path: a tuple of PropertyRef steps.
Path = Tuple[PropertyRef, ...]

#: What the sessions take for a path: a step, a bare IRI or several of them.
AnyPath = Union[PropertyRef, IRI, Iterable[Union[PropertyRef, IRI]]]


# ---------------------------------------------------------------------------
# §5.3.1 operations
#
# All four operations run at the id level: the extension is encoded
# once at entry, every join probe and set intersection then compares
# dense ints against the store's live index sets, and terms are decoded
# only in the returned sets.  On the interactive path this is where the
# dictionary encoding pays off — |E| × |edges| probes per facet click.
# ---------------------------------------------------------------------------
def restrict(graph: Graph, extension: Iterable[Term], p: PropertyRef,
             values: Union[Term, Iterable[Term]]) -> Set[Term]:
    """``Restrict(E, p : v)`` / ``Restrict(E, p : vset)``.

    Keeps the elements of ``extension`` having a ``p`` edge to ``values``
    (a single Term or an iterable of Terms).
    """
    if isinstance(values, Term):
        values = (values,)
    return graph.decode_ids(
        _restrict_ids(graph, graph.encode_terms(extension), p,
                      graph.encode_terms(values))
    )


def restrict_to_class(graph: Graph, extension: Iterable[Term], cls: IRI) -> Set[Term]:
    """``Restrict(E, c)`` — the elements of E that are instances of c."""
    return graph.decode_ids(
        graph.encode_terms(extension) & _instance_ids(graph, cls))


def _instance_ids(graph: Graph, cls: IRI) -> AbstractSet[int]:
    """``inst(c)`` in id space: the ``rdf:type`` POS row of ``cls``."""
    type_id = graph.encode_term(RDF.type)
    cls_id = graph.encode_term(cls)
    if type_id is None or cls_id is None:
        return EMPTY_IDS
    return graph.subjects_ids(type_id, cls_id)


def joins(graph: Graph, extension: Iterable[Term], p: PropertyRef) -> Set[Term]:
    """``Joins(E, p)`` — the values linked to E's elements through p."""
    return graph.decode_ids(
        _joins_ids(graph, graph.encode_terms(extension), p)
    )


def _joins_ids(graph: Graph, extension_ids: Set[int], p: PropertyRef) -> Set[int]:
    prop_id = graph.encode_term(p.prop)
    out: Set[int] = set()
    if prop_id is None:
        return out
    if not p.inverse:  # a literal has no SPO row: nothing to skip
        # Testing p's value rows against the members costs at most one
        # C-level lookup per triple of p (a row stops at its first
        # member); walking the members, one row probe each, about ten
        # lookups' worth: rows while p has at most four triples a member.
        if 4 * len(extension_ids) >= graph.count_ids(None, prop_id, None):
            return {value_id for value_id, subjects
                    in graph.pos_ids(prop_id).items()
                    if not extension_ids.isdisjoint(subjects)}
        return out.union(*(graph.objects_ids(n, prop_id)
                           for n in extension_ids))
    decode = graph.decode_id
    for node_id in extension_ids:
        targets = graph.subjects_ids(prop_id, node_id)
        if targets and not isinstance(decode(node_id), Literal):
            out |= targets
    return out


def _restrict_ids(graph: Graph, extension_ids: Set[int], p: PropertyRef,
                  value_ids: Set[int]) -> Set[int]:
    prop_id = graph.encode_term(p.prop)
    out: Set[int] = set()
    if prop_id is None or not value_ids:
        return out
    decode = graph.decode_id
    neighbours = (
        (lambda n: graph.subjects_ids(prop_id, n)) if p.inverse
        else (lambda n: graph.objects_ids(n, prop_id))
    )
    for node_id in extension_ids:
        targets = neighbours(node_id)
        if targets and not value_ids.isdisjoint(targets) \
                and not isinstance(decode(node_id), Literal):
            out.add(node_id)
    return out


def _path_joins_ids(graph: Graph, extension_ids: Set[int],
                    path: Path) -> List[Set[int]]:
    markers: List[Set[int]] = []
    frontier = extension_ids
    for step in path:
        frontier = _joins_ids(graph, frontier, step)
        markers.append(frontier)
    return markers


def _restrict_by_path_ids(graph: Graph, extension_ids: FrozenSet[int],
                          path: Path, value_ids: Iterable[int]) -> AbstractSet[int]:
    """Eq. 5.1 in id space, walked *backwards*: the members of
    ``extension_ids`` from which ``path`` reaches one of ``value_ids``.

    Per step, last to first, the sources of the current targets are the
    union of their POS rows (of their SPO rows for an inverse step,
    whose literal sources are dropped as :func:`_joins_ids` drops
    them) — a single target's row is read in place, which is all a
    class click does; the extension enters once, as an intersection at
    the first step.  No forward marker set is built and no member is
    probed — the result equals :func:`restrict_by_path`'s, which stays
    the formal definition and the tests' oracle.
    """
    decode = graph.decode_id
    targets: Collection[int] = frozenset(value_ids)
    for index in range(len(path) - 1, -1, -1):
        step = path[index]
        prop_id = graph.encode_term(step.prop)
        if prop_id is None or not targets:
            return EMPTY_IDS
        if step.inverse:
            rows = [graph.objects_ids(t, prop_id) for t in targets]
        else:
            rows = [graph.subjects_ids(prop_id, t) for t in targets]
        sources = rows[0] if len(rows) == 1 else frozenset().union(*rows)
        if index == 0:
            sources = extension_ids.intersection(sources)
        if step.inverse:
            sources = frozenset(
                n for n in sources if not isinstance(decode(n), Literal))
        targets = sources
    return targets


def path_joins(graph: Graph, extension: Iterable[Term], path: Path) -> List[Set[Term]]:
    """The marker sets ``M_1 .. M_k`` along a path (§5.3.2, Path Expansion).

    ``M_0 = extension`` is not included; element ``i`` of the result is
    ``M_{i+1} = Joins(M_i, p_{i+1})``.
    """
    return [
        graph.decode_ids(ids)
        for ids in _path_joins_ids(graph, graph.encode_terms(extension), path)
    ]


def restrict_by_path(graph: Graph, extension: Iterable[Term], path: Path,
                     values: Union[Term, Iterable[Term]]) -> Set[Term]:
    """Eq. 5.1: select value(s) at the end of a path and propagate the
    restriction back to the extension (``M'_k .. M'_0``)."""
    if isinstance(values, Term):
        values = (values,)
    extension_ids = graph.encode_terms(extension)
    value_ids = graph.encode_terms(values)
    marker_sets = _path_joins_ids(graph, extension_ids, path)
    restricted = marker_sets[-1] & value_ids  # M'_k
    for i in range(len(path) - 2, -1, -1):
        restricted = _restrict_ids(graph, marker_sets[i], path[i + 1], restricted)
    return graph.decode_ids(
        _restrict_ids(graph, extension_ids, path[0], restricted)
    )


# ---------------------------------------------------------------------------
# Transition markers
# ---------------------------------------------------------------------------
class ValueMarker(NamedTuple):
    """One clickable value of a facet, with its count.

    ``count`` is ``|Restrict(M, p : value)|`` over the marker set M that
    precedes this path position — never zero, so a click never empties
    the result set.  A facet does not keep its markers: it keeps them
    as :class:`Markers` columns and hands out a ``(value, count)`` tuple
    each time one is read.
    """

    value: Term
    count: int

    @property
    def label(self) -> str:
        return display_name(self.value)

    def __str__(self):
        return f"{self.label} ({self.count})"


class Markers(Sequence):
    """A facet's value markers as two columns: the value terms and
    their counts, in marker order.

    A listing holds thousands of markers; as columns they are two
    tuples per facet instead of one tracked tuple per value, which the
    cyclic collector would otherwise walk (DESIGN.md design choice 4).
    Reading a marker (index, iteration) builds its :class:`ValueMarker`
    and keeps none; a slice is a new ``Markers``.  Length, membership,
    equality (with a plain tuple of markers too), hash, ``repr`` and
    pickling are the tuple of markers'.
    """

    __slots__ = ("terms", "counts")

    def __init__(self, terms: Tuple[Term, ...] = (),
                 counts: Tuple[int, ...] = ()):
        self.terms = terms
        self.counts = counts

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Markers(self.terms[index], self.counts[index])
        return ValueMarker(self.terms[index], self.counts[index])

    def __iter__(self):
        return map(tuple.__new__, repeat(ValueMarker),
                   zip(self.terms, self.counts))

    def __eq__(self, other):
        if isinstance(other, Markers):
            return self.terms == other.terms and self.counts == other.counts
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        return Markers, (self.terms, self.counts)


@dataclass(frozen=True, slots=True)
class ClassMarker:
    """A class-based transition marker (Fig. 5.4 a/b), hierarchical.

    ``approximate`` marks a count served from a stale cache after an
    endpoint failure (graceful degradation) — the UI renders it as
    "~n" and must tolerate the click landing on an empty result.
    """

    cls: IRI
    count: int
    children: Tuple["ClassMarker", ...] = ()
    approximate: bool = False

    @property
    def label(self) -> str:
        return self.cls.local_name()

    def __str__(self):
        tilde = "~" if self.approximate else ""
        return f"{self.label} ({tilde}{self.count})"

    def flatten(self) -> List["ClassMarker"]:
        out = [self]
        for child in self.children:
            out.extend(child.flatten())
        return out


@dataclass(frozen=True, slots=True)
class PropertyFacet:
    """A property facet: ``by <property> (n)`` with its value markers.

    ``path`` locates the facet: length 1 for a direct facet of the
    extension, longer after path expansion (Fig. 5.5 b).  ``count`` is
    the number of extension objects having the (path) property.
    ``values`` reads as a tuple of :class:`ValueMarker`; the sessions
    keep it as :class:`Markers` columns.
    """

    path: Path
    count: int
    values: Sequence[ValueMarker]
    approximate: bool = False

    @property
    def prop(self) -> PropertyRef:
        return self.path[-1]

    @property
    def label(self) -> str:
        return "by " + " ▷ ".join(step.name for step in self.path)

    def __str__(self):
        tilde = "~" if self.approximate else ""
        return f"{self.label} ({tilde}{self.count})"

    def value_for(self, term: Term) -> Optional[ValueMarker]:
        for marker in self.values:
            if marker.value == term:
                return marker
        return None


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------
class State:
    """An interaction state: extension + intention (§5.2.1).

    The extension lives in id space for the whole life of the state:
    ``ids`` is the frozen set of its members' dictionary ids — what
    every transition, count and cache key works on — and ``unknown``
    holds the members the graph never interned (seeds of a ``results=``
    session; they match nothing but still count).  :attr:`extension`
    decodes to Terms on first use.

    A state's members never change; the session builds new states on
    each transition and keeps the history for *back* navigation.  What
    the session derives from a state it remembers on the state itself
    (``FacetedSession._per_state``), so a state that leaves the history
    takes everything derived from it along.
    """

    __slots__ = ("ids", "unknown", "intention", "description",
                 "_graph", "_extension", "_memo")

    def __init__(self, graph: Graph, ids: FrozenSet[int], intention: Intention,
                 description: str = "initial",
                 unknown: FrozenSet[Term] = frozenset()):
        self.ids = ids
        self.unknown = unknown
        self.intention = intention
        self.description = description
        self._graph = graph
        self._extension: Optional[FrozenSet[Term]] = None
        #: The session's memo: key → ``(generation, value, stat)``.
        self._memo: Dict[object, Tuple[int, object, Optional[str]]] = {}

    @property
    def extension(self) -> FrozenSet[Term]:
        """The members as Terms (decoded once, on first use)."""
        if self._extension is None:
            self._extension = frozenset(
                chain(map(self._graph.decode_id, self.ids), self.unknown))
        return self._extension

    def __len__(self) -> int:
        return len(self.ids) + len(self.unknown)

    def __repr__(self):
        return f"<State '{self.description}' |Ext|={len(self)}>"
