"""A hash-partitioned store composed of plain :class:`Graph` slices.

:class:`ShardedGraph` keeps the exact public surface of
:class:`~repro.rdf.graph.Graph` but holds its triples in N plain
``Graph`` slices, partitioned by **subject id**: triple ``(si, pi,
oi)`` lives in slice ``si % num_shards`` and nowhere else.  The slices
intern into the sharded store's own term dictionary, so an id means the
same term in every slice, and each slice maintains its indexes and
statistics with the one implementation ``Graph`` has.  What is left
here is what partitioning itself adds:

* ``spo`` rows route — the subject id picks the one owning slice, and
  ``objects_ids`` / ``spo_ids`` answer whatever that slice answers (a
  one-tuple for a lone object, a key view of predicate ids);
* ``pos`` rows split — a predicate's row is the disjoint union of the
  per-slice rows, so merged counts are sums and merged subject sets
  need no de-duplication (objects, which may appear in several slices,
  are the one exception — their unions de-duplicate);
* per-slice predicate statistics roll up by addition into the same
  O(1) global stats API (`count`, `predicate_counts`) the planner
  already uses, mirroring the per-partition statistics argument of
  SOFOS.

The slices are scanned in turn, in process.  Fanning the scan out over
a fork pool was measured and lost to this loop at every size tried
(EXPERIMENTS.md, *Ablations*), so there is one execution mode.

Equivalence is a hard contract: every accessor and every merge must
return byte-identical results to the flat store — the equivalence
suites run the full query/facet workload at shard counts 1/2/4/7
against the row engine to pin it.

Nothing a user sets reaches this store any more: :class:`ShardedGraph`,
:data:`PARALLEL_ENV` and the loaders' ``shards=`` argument are kept
only for the frozen benchmark's sharding twin (``perf/workloads.py``),
and go with it (ROADMAP item 2(a)).
"""

from __future__ import annotations

from itertools import chain, repeat
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

from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import EMPTY_IDS, FacetCounts, Graph, _column
from repro.rdf.terms import Term, Triple

# Read by nothing: the frozen benchmark (perf/workloads.py) imports the
# name and sets the variable around its sharding twin.
PARALLEL_ENV = "REPRO_PARALLEL"


class ShardedGraph(Graph):
    """A :class:`Graph` hash-partitioned by subject id into N slices.

    Drop-in compatible: every accessor answers over the union of the
    slices (routing where the subject is bound, merging otherwise), a
    mutation goes to the owning slice and into the global roll-up
    stats, and derived graphs (``copy``, ``difference``, the RDFS
    closure's materialization) preserve the shard count.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None,
                 shards: int = 4):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        super().__init__()
        self.num_shards = shards
        self._slices = [Graph() for _ in range(shards)]
        self._share_dictionary(self._dict)
        if triples is not None:
            self.add_all(triples)

    def _share_dictionary(self, dictionary: TermDictionary) -> None:
        """Make ``dictionary`` the one term ↔ id mapping of this store
        and of every slice."""
        self._dict = dictionary
        for piece in self._slices:
            piece._dict = dictionary

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, source: Graph, shards: int = 4) -> "ShardedGraph":
        """Repartition an existing store into ``shards`` slices.

        Works entirely in id space: the term dictionary is cloned (same
        term ↔ id assignments, so every derived id set stays valid) and
        each subject's objects, read predicate by predicate through
        ``objects_ids``, are handed to its owning slice — no term decode
        or re-intern happens.
        """
        out = cls(shards=shards)
        out._share_dictionary(source.dictionary.clone())
        for si in source.all_subject_ids():
            add = out._owner(si)._add_ids
            for pi in source.spo_ids(si):
                for oi in source.objects_ids(si, pi):
                    add(si, pi, oi)
        out._size = len(source)
        out._pred_count = dict(source._pred_count)
        out.generation = 1 if out._size else 0
        return out

    def _new_like(self, triples: Optional[Iterable[Triple]] = None) -> "ShardedGraph":
        return ShardedGraph(triples, shards=self.num_shards)

    def _copy_from(self, source: "ShardedGraph",
                   dictionary: TermDictionary) -> None:
        """The roll-up (this store's own index maps stay empty), then
        slice by slice — all under the one ``dictionary``."""
        super()._copy_from(source, dictionary)
        for piece, original in zip(self._slices, source._slices):
            piece._copy_from(original, dictionary)

    @property
    def shards(self) -> Tuple[Graph, ...]:
        """The partition slices, in routing order (read-only use)."""
        return tuple(self._slices)

    def _owner(self, si: int) -> Graph:
        """The slice owning subject id ``si``.  Dense dictionary ids
        make the modulo a uniform partitioner — no hashing needed on
        top of the dictionary's own interning."""
        return self._slices[si % self.num_shards]

    # ------------------------------------------------------------------
    # Mutation (route to the owning slice, maintain the roll-up)
    # ------------------------------------------------------------------
    def _add_ids(self, si: int, pi: int, oi: int) -> bool:
        if not self._owner(si)._add_ids(si, pi, oi):
            return False
        self._mutated(pi, 1)
        return True

    def _remove_ids(self, si: int, pi: int, oi: int) -> bool:
        if not self._owner(si)._remove_ids(si, pi, oi):
            return False
        self._mutated(pi, -1)
        return True

    def _mutated(self, pi: int, delta: int) -> None:
        """The roll-up's size, count of ``pi`` and generation."""
        self._size += delta
        remaining = self._pred_count.get(pi, 0) + delta
        if remaining:
            self._pred_count[pi] = remaining
        else:
            del self._pred_count[pi]
        self.generation += 1

    # ------------------------------------------------------------------
    # Id-level accessors: route on bound subject, merge otherwise
    # ------------------------------------------------------------------
    def objects_ids(self, si, pi):
        return self._owner(si).objects_ids(si, pi)

    def spo_ids(self, si) -> Collection[int]:
        return self._owner(si).spo_ids(si)

    def objects_column(self, subjects, pi):
        return _column(list(map(self.objects_ids, subjects, repeat(pi))))

    def subjects_ids(self, pi, oi):
        """Merged ``{s | (s, p, o)}`` — per-slice rows are disjoint, so
        the union never de-duplicates; a single populated row is
        returned live, without copying."""
        rows = [row for row in (piece.subjects_ids(pi, oi)
                                for piece in self._slices) if row]
        if len(rows) > 1:
            return set().union(*rows)
        return rows[0] if rows else EMPTY_IDS

    def pos_ids(self, pi) -> Dict[int, Set[int]]:
        """Merged object → subject-ids row of one predicate.

        Subject sets from different slices are disjoint, so the merge is
        pure set union without overcounting; when only one slice holds
        the predicate the live row is returned uncopied.
        """
        rows = [row for row in (piece.pos_ids(pi) for piece in self._slices)
                if row]
        if len(rows) < 2:
            return rows[0] if rows else {}
        merged: Dict[int, Set[int]] = {}
        for row in rows:
            for oi, subjects in row.items():
                existing = merged.get(oi)
                if existing is None:
                    merged[oi] = set(subjects)
                else:
                    existing |= subjects
        return merged

    # ------------------------------------------------------------------
    # Pattern matching / membership
    # ------------------------------------------------------------------
    def triples_ids(self, si: Optional[int] = None, pi: Optional[int] = None,
                    oi: Optional[int] = None) -> Iterator[Tuple[int, int, int]]:
        if si is None:
            return chain.from_iterable(
                piece.triples_ids(si, pi, oi) for piece in self._slices)
        return self._owner(si).triples_ids(si, pi, oi)

    def __contains__(self, t: Triple) -> bool:
        si = self._dict.lookup(t[0])
        return si is not None and t in self._owner(si)

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------
    def all_subject_ids(self):
        """All encoded subject ids (disjoint concatenation of the slice
        key views — a fresh list, unlike the flat store's live view)."""
        return list(chain.from_iterable(
            piece.all_subject_ids() for piece in self._slices))

    def _subjects_among(self, ids: AbstractSet[int]) -> Set[int]:
        return set().union(*(piece._subjects_among(ids)
                             for piece in self._slices))

    def all_predicate_ids(self):
        """The roll-up statistics' key view — maintained incrementally,
        so no slice merge is needed."""
        return self._pred_count.keys()

    def all_objects(self) -> Set[Term]:
        return set().union(*(piece.all_objects() for piece in self._slices))

    # ------------------------------------------------------------------
    # The facet scan: every slice's counts, merged
    # ------------------------------------------------------------------
    def facet_counts(self, ids: AbstractSet[int],
                     slots: Collection[Tuple[int, bool]]) -> FacetCounts:
        """:meth:`Graph.facet_counts` of every slice, merged into what
        the flat store returns: forward counters and having-counts add
        up (a member is the subject of rows in one slice only); inverse
        counters are keyed by subject, so they union; an inverse
        having-count is the number of members among the predicate's
        values, which recur across slices, so it is re-counted on the
        merged value set.  A merged forward counter is put back in
        marker order: each slice's is, so the sort only merges runs."""
        counters: Dict[Tuple[int, bool], Dict[int, int]] = {}
        having: Dict[Tuple[int, bool], int] = {}
        for piece in self._slices:
            part_counters, part_having = piece.facet_counts(ids, slots)
            for slot, counter in part_counters.items():
                target = counters.get(slot)
                if target is None:
                    counters[slot] = dict(counter)
                    having[slot] = part_having[slot]
                elif slot[1]:
                    target.update(counter)
                else:
                    for value_id, n in counter.items():
                        target[value_id] = target.get(value_id, 0) + n
                    having[slot] += part_having[slot]
        order = self._dict.sort_keys.__getitem__
        for slot in having:
            if slot[1]:
                matched: Set[int] = set()
                for piece in self._slices:
                    matched.update(ids.intersection(piece.pos_ids(slot[0])))
                having[slot] = len(matched)
            else:
                counters[slot] = dict(sorted(counters[slot].items(),
                                             key=lambda item: order(item[0])))
        return counters, having

    # A no-op: the frozen benchmark (perf/workloads.py) calls it.
    def close(self) -> None:
        pass

    def __repr__(self):
        return (f"<ShardedGraph with {self._size} triples "
                f"in {self.num_shards} shards>")


__all__ = ["PARALLEL_ENV", "ShardedGraph"]
