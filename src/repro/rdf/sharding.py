"""A hash-partitioned, fan-out-capable twin of the dictionary store.

:class:`ShardedGraph` keeps the exact public surface of
:class:`~repro.rdf.graph.Graph` but splits the three permutation
indexes into N independent :class:`GraphShard` slices, partitioned by
**subject id**: triple ``(si, pi, oi)`` lives in shard ``si %
num_shards`` and nowhere else.  Because the partition key is the
subject, the shards partition the *subjects* of the graph:

* ``spo`` rows route — one dictionary probe finds the one owning shard;
* ``pos`` / ``osp`` rows split — a predicate's (or object's) row is the
  disjoint union of the per-shard rows, so merged counts are sums and
  merged maps need no de-duplication of subject keys (objects, which
  may appear in several shards, are the one exception — their unions
  de-duplicate);
* per-shard predicate statistics roll up by addition into the same
  O(1) global stats API (`count`, `predicate_counts`) the planner
  already uses, mirroring the per-partition statistics argument of
  SOFOS.

The split buys two things.  First, every whole-index scan — the
shared-scan facet counter, the columnar engine's successor probes —
decomposes into N independent shard kernels whose results merge
cheaply; :class:`ShardExecutor` fans those kernels out over a
``concurrent.futures`` process pool on multi-core hosts (fork start
method, the graph reaching workers by copy-on-write page sharing, id
columns crossing the boundary as compact ``array('q')`` buffers) and
degrades to an in-process sequential loop everywhere else.  Second —
and on single-core hosts the part that actually pays — the sharded
session protocol keeps the *extension in id space* between scans (the
per-generation partition is what the kernels consume), eliminating the
term→id re-encode that dominates the flat store's shared scan at the
million-triple scale (see ``benchmarks/bench_ablation_sharding.py``).

Equivalence is a hard contract: every accessor, every kernel and every
merge must return byte-identical results to the flat store — the
equivalence suites run the full query/facet workload at shard counts
1/2/4/7 against the row engine to pin it.

The sequential fallback triggers when any of these holds:

* ``REPRO_PARALLEL=sequential`` (the environment override);
* the host has fewer than two CPU cores, or no ``fork`` start method;
* the graph is small (< :data:`PARALLEL_MIN_TRIPLES` triples) —
  process startup would dwarf the scan;
* the store is not dictionary-encoded (``Graph(encoded=False)`` keeps
  its current fast path; a sharded store requires encoding).
"""

from __future__ import annotations

import os
from array import array
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.rdf.dictionary import PassthroughDictionary
from repro.rdf.graph import (
    EMPTY_IDS,
    Graph,
    _index_add,
    _index_remove,
    _match_pattern,
)
from repro.rdf.terms import Term, Triple, triple

#: Environment override for the fan-out strategy: ``auto`` (default),
#: ``sequential`` (never fork) or ``process`` (always fork — tests use
#: it to exercise the pool on any host).
PARALLEL_ENV = "REPRO_PARALLEL"

#: Below this many triples, ``auto`` mode never forks: pool startup and
#: result pickling would cost more than the scan itself.
PARALLEL_MIN_TRIPLES = 100_000

#: The graph a forked worker operates on, inherited from the parent via
#: copy-on-write at pool creation (set *before* the fork, read-only in
#: the children; a generation change makes the parent rebuild the pool).
_WORKER_GRAPH: Optional["ShardedGraph"] = None


def shard_of(si: int, num_shards: int) -> int:
    """The shard owning subject id ``si``.

    Dense dictionary ids make the modulo a uniform partitioner — no
    hashing needed on top of the dictionary's own interning.
    """
    return si % num_shards


class GraphShard:
    """One partition's index slice: SPO/POS/OSP maps plus local stats."""

    __slots__ = ("spo", "pos", "osp", "pred_count", "size")

    def __init__(self):
        self.spo: Dict[int, Dict[int, Set[int]]] = {}
        self.pos: Dict[int, Dict[int, Set[int]]] = {}
        self.osp: Dict[int, Dict[int, Set[int]]] = {}
        #: Per-predicate triple count *within this shard*; the global
        #: statistics are the roll-up (sum) of these.
        self.pred_count: Dict[int, int] = {}
        self.size = 0

    def __repr__(self):
        return f"<GraphShard with {self.size} triples>"


class ShardedGraph(Graph):
    """A :class:`Graph` hash-partitioned by subject id into N shards.

    Drop-in compatible: every accessor answers over the union of the
    shards (routing where the subject is bound, merging otherwise), all
    mutation maintains both the owning shard's slice and the global
    roll-up stats, and derived graphs (``copy``, ``difference``, the
    RDFS closure's materialization) preserve the shard count.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None,
                 encoded: bool = True, shards: int = 4):
        if not encoded:
            raise ValueError(
                "a sharded store requires dictionary encoding; "
                "Graph(encoded=False) is the unsharded ablation layout")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.num_shards = shards
        self._shards = [GraphShard() for _ in range(shards)]
        self._executor: Optional[ShardExecutor] = None
        super().__init__(triples, encoded=True)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, source: Graph, shards: int = 4) -> "ShardedGraph":
        """Repartition an existing store into ``shards`` shards.

        For an encoded source this works entirely in id space: the term
        dictionary is cloned (same term ↔ id assignments, so every
        derived id set stays valid) and the index slices are rebuilt by
        routing each SPO row to its owning shard — no term decode or
        re-intern happens.
        """
        out = cls(encoded=True, shards=shards)
        if isinstance(source._dict, PassthroughDictionary):
            out.add_all(source.triples())
            return out
        out._dict = source.dictionary.clone()
        n = shards
        pick = out._shards
        for si in source.all_subject_ids():
            shard = pick[si % n]
            spo, pos, osp = shard.spo, shard.pos, shard.osp
            pred_count = shard.pred_count
            for pi, objects in source.spo_ids(si).items():
                for oi in objects:
                    _index_add(spo, pos, osp, si, pi, oi)
                added = len(objects)
                pred_count[pi] = pred_count.get(pi, 0) + added
                out._pred_count[pi] = out._pred_count.get(pi, 0) + added
                shard.size += added
                out._size += added
        out._bnode_counter = source._bnode_counter
        out.generation = 1 if out._size else 0
        return out

    def _new_like(self, triples: Optional[Iterable[Triple]] = None) -> "ShardedGraph":
        return ShardedGraph(triples, encoded=True, shards=self.num_shards)

    @property
    def shards(self) -> Tuple[GraphShard, ...]:
        """The partition slices (read-only view; kernels index them)."""
        return tuple(self._shards)

    def shard_sizes(self) -> List[int]:
        """Per-shard triple counts — the balance diagnostic."""
        return [shard.size for shard in self._shards]

    # ------------------------------------------------------------------
    # Mutation (route to the owning shard, maintain the roll-up)
    # ------------------------------------------------------------------
    def add(self, s: Term, p: Term, o: Term) -> bool:
        s, p, o = triple(s, p, o)
        encode = self._dict.encode
        si, pi, oi = encode(s), encode(p), encode(o)
        shard = self._shards[si % self.num_shards]
        if not _index_add(shard.spo, shard.pos, shard.osp, si, pi, oi):
            return False
        shard.size += 1
        shard.pred_count[pi] = shard.pred_count.get(pi, 0) + 1
        self._size += 1
        self._pred_count[pi] = self._pred_count.get(pi, 0) + 1
        self.generation += 1
        return True

    def remove(self, s: Term, p: Term, o: Term) -> bool:
        lookup = self._dict.lookup
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        shard = self._shards[si % self.num_shards]
        if not _index_remove(shard.spo, shard.pos, shard.osp, si, pi, oi):
            return False
        shard.size -= 1
        remaining = shard.pred_count[pi] - 1
        if remaining:
            shard.pred_count[pi] = remaining
        else:
            # Pruned eagerly, exactly like the index slots: add → remove
            # round trips leave per-shard stats byte-identical to never
            # having added.
            del shard.pred_count[pi]
        self._size -= 1
        remaining = self._pred_count[pi] - 1
        if remaining:
            self._pred_count[pi] = remaining
        else:
            del self._pred_count[pi]
        self.generation += 1
        return True

    # ------------------------------------------------------------------
    # Id-level accessors: route on bound subject, merge otherwise
    # ------------------------------------------------------------------
    def objects_ids(self, si, pi):
        po = self._shards[si % self.num_shards].spo.get(si)
        if po is None:
            return EMPTY_IDS
        return po.get(pi, EMPTY_IDS)

    def spo_ids(self, si) -> Dict[int, Set[int]]:
        return self._shards[si % self.num_shards].spo.get(si) or {}

    def subjects_ids(self, pi, oi):
        """Merged ``{s | (s, p, o)}`` — per-shard rows are disjoint, so
        the union never de-duplicates; single-populated rows return the
        live set without copying."""
        found = None
        merged = None
        for shard in self._shards:
            os_ = shard.pos.get(pi)
            if os_ is None:
                continue
            subjects = os_.get(oi)
            if not subjects:
                continue
            if found is None:
                found = subjects
            elif merged is None:
                merged = set(found)
                merged |= subjects
            else:
                merged |= subjects
        if merged is not None:
            return merged
        return found if found is not None else EMPTY_IDS

    def pos_ids(self, pi) -> Dict[int, Set[int]]:
        """Merged object → subject-ids row of one predicate.

        Subject sets from different shards are disjoint, so the merge is
        pure set union without overcounting; when only one shard holds
        the predicate the live row is returned uncopied.
        """
        rows = [shard.pos[pi] for shard in self._shards if pi in shard.pos]
        if not rows:
            return {}
        if len(rows) == 1:
            return rows[0]
        merged: Dict[int, Set[int]] = {}
        for row in rows:
            for oi, subjects in row.items():
                existing = merged.get(oi)
                if existing is None:
                    merged[oi] = set(subjects)
                else:
                    existing |= subjects
        return merged

    def osp_ids(self, oi) -> Dict[int, Set[int]]:
        """Merged subject → predicate-ids row of one object.  Subject
        keys are disjoint across shards: a plain dict update merges."""
        rows = [shard.osp[oi] for shard in self._shards if oi in shard.osp]
        if not rows:
            return {}
        if len(rows) == 1:
            return rows[0]
        merged: Dict[int, Set[int]] = {}
        for row in rows:
            merged.update(row)
        return merged

    # ------------------------------------------------------------------
    # Pattern matching / membership
    # ------------------------------------------------------------------
    def triples(self, s=None, p=None, o=None) -> Iterator[Triple]:
        lookup = self._dict.lookup
        decode = self._dict.decode
        if s is not None:
            si = lookup(s)
            if si is None:
                return iter(())
            shard = self._shards[si % self.num_shards]
            return _match_pattern(
                lookup, decode, shard.spo, shard.pos, shard.osp, s, p, o)

        def _chained():
            for shard in self._shards:
                yield from _match_pattern(
                    lookup, decode, shard.spo, shard.pos, shard.osp, s, p, o)

        return _chained()

    def __contains__(self, t: Triple) -> bool:
        s, p, o = t
        lookup = self._dict.lookup
        si, pi, oi = lookup(s), lookup(p), lookup(o)
        if si is None or pi is None or oi is None:
            return False
        po = self._shards[si % self.num_shards].spo.get(si)
        if po is None:
            return False
        return oi in po.get(pi, EMPTY_IDS)

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------
    def all_subjects(self) -> Set[Term]:
        return self._dict.decode_all(self.all_subject_ids())

    def all_subject_ids(self):
        """All encoded subject ids (disjoint concatenation of the shard
        key views — a fresh list, unlike the flat store's live view)."""
        out: List[int] = []
        for shard in self._shards:
            out.extend(shard.spo.keys())
        return out

    def all_predicates(self) -> Set[Term]:
        return self._dict.decode_all(self._pred_count.keys())

    def all_predicate_ids(self):
        """The roll-up statistics' key view — maintained incrementally,
        so no shard merge is needed."""
        return self._pred_count.keys()

    def all_objects(self) -> Set[Term]:
        ids: Set[int] = set()
        for shard in self._shards:
            ids.update(shard.osp.keys())
        return self._dict.decode_all(ids)

    # ------------------------------------------------------------------
    # Fan-out execution
    # ------------------------------------------------------------------
    def executor(self) -> "ShardExecutor":
        """The (lazily created) fan-out executor for this graph."""
        if self._executor is None:
            self._executor = ShardExecutor(self)
        return self._executor

    def close(self) -> None:
        """Shut down the process pool, if one was ever started."""
        if self._executor is not None:
            self._executor.close()

    def facet_counts(
        self,
        ext_ids: Set[int],
        schema_ids: Set[int],
        include_inverse: bool = False,
    ) -> Tuple[Dict[Tuple[int, bool], Dict[int, int]], Dict[Tuple[int, bool], int]]:
        """The shared-scan facet counters of ``all_facets``, fanned out.

        ``ext_ids`` is the literal-filtered, id-space extension.  Returns
        the exact ``(counters, having)`` structures the flat store's
        inline scan builds: forward counters merge by summation (shard
        subject sets are disjoint), inverse counters merge by dict union
        (subject keys are disjoint) and inverse *having* counts
        de-duplicate matched object ids across shards before counting.
        """
        executor = self.executor()
        if executor.active():
            blob = array("q", ext_ids)
            parts = executor.map_shards(
                _facet_kernel, blob, schema_ids, include_inverse)
        else:
            parts = [
                _facet_shard_scan(shard, ext_ids, schema_ids, include_inverse)
                for shard in self._shards
            ]
        counters: Dict[Tuple[int, bool], Dict[int, int]] = {}
        having: Dict[Tuple[int, bool], int] = {}
        inverse_matched: Dict[Tuple[int, bool], Set[int]] = {}
        for part_counters, part_having, part_matched in parts:
            for slot, counter in part_counters.items():
                target = counters.get(slot)
                if target is None:
                    counters[slot] = dict(counter)
                elif slot[1]:
                    target.update(counter)
                else:
                    for vid, n in counter.items():
                        target[vid] = target.get(vid, 0) + n
            for slot, n in part_having.items():
                having[slot] = having.get(slot, 0) + n
            for slot, matched in part_matched.items():
                bucket = inverse_matched.get(slot)
                if bucket is None:
                    inverse_matched[slot] = set(matched)
                else:
                    bucket |= matched
        for slot, matched in inverse_matched.items():
            having[slot] = len(matched)
        return counters, having

    def prefetch_successors(self, node_ids: Iterable[int], prop_id: int,
                            inverse: bool,
                            sort_key: Callable[[int], tuple],
                            ) -> Dict[int, Tuple[int, ...]]:
        """Batch-compute successor memo entries for a frontier, fanned
        out across shards.  Returns ``{}`` in sequential mode — the
        caller's per-node path is then exactly as cheap.

        Forward steps route each node to its owning shard, whose kernel
        returns the finished sort-ordered tuples; inverse steps return
        per-shard partial subject sets that merge (disjointly) here and
        are sorted once.  Either way the memo entries are byte-identical
        to what :meth:`ColumnEngine.successors` computes one by one.
        """
        executor = self.executor()
        if not executor.active():
            return {}
        if not inverse:
            n = self.num_shards
            by_shard: List[array] = [array("q") for _ in range(n)]
            for node in node_ids:
                by_shard[node % n].append(node)
            parts = executor.map_shards_args(
                _successor_kernel,
                [(blob, prop_id) for blob in by_shard],
            )
            merged: Dict[int, Tuple[int, ...]] = {}
            for part in parts:
                merged.update(part)
            return merged
        blob = array("q", node_ids)
        parts = executor.map_shards(_inverse_successor_kernel, blob, prop_id)
        partial: Dict[int, Set[int]] = {}
        for part in parts:
            for node, subjects in part.items():
                bucket = partial.get(node)
                if bucket is None:
                    partial[node] = set(subjects)
                else:
                    bucket |= subjects
        out: Dict[int, Tuple[int, ...]] = {node: () for node in node_ids}
        for node, subjects in partial.items():
            out[node] = tuple(sorted(subjects, key=sort_key))
        return out

    def __repr__(self):
        return (f"<ShardedGraph with {self._size} triples "
                f"in {self.num_shards} shards>")


# ---------------------------------------------------------------------------
# Shard kernels.  Each runs against ONE shard slice — in-process on the
# sequential path, in a forked worker (reading the copy-on-write
# inherited _WORKER_GRAPH) on the parallel path.
# ---------------------------------------------------------------------------
#: One shard's facet-scan result: per-(property, inverse) value
#: counters, forward "having" counts, and inverse matched object-id
#: sets (deduplicated across shards by the caller before counting).
FacetScan = Tuple[
    Dict[Tuple[int, bool], Dict[int, int]],
    Dict[Tuple[int, bool], int],
    Dict[Tuple[int, bool], Set[int]],
]


def _facet_shard_scan(shard: GraphShard, ext_set: AbstractSet[int],
                      schema_ids: AbstractSet[int],
                      include_inverse: bool) -> FacetScan:
    """One shard's share of the property-major facet scan.

    Mirrors the flat store's inline loop in
    ``FacetedSession.all_facets`` exactly, except that inverse *having*
    is returned as the matched object-id set (objects may recur in
    other shards; the caller de-duplicates before counting).
    """
    counters: Dict[Tuple[int, bool], Dict[int, int]] = {}
    having: Dict[Tuple[int, bool], int] = {}
    inverse_matched: Dict[Tuple[int, bool], Set[int]] = {}
    for pid, rows in shard.pos.items():
        if pid in schema_ids:
            continue
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
            matched: Set[int] = set()
            for value_id, subjects in rows.items():
                if value_id in ext_set:
                    matched.add(value_id)
                    for sid in subjects:
                        counter[sid] = counter.get(sid, 0) + 1
            if counter:
                counters[(pid, True)] = counter
                inverse_matched[(pid, True)] = matched
    return counters, having, inverse_matched


def _facet_kernel(shard_index: int, ext_blob: array,
                  schema_ids: AbstractSet[int],
                  include_inverse: bool) -> FacetScan:
    graph = _WORKER_GRAPH
    return _facet_shard_scan(
        graph._shards[shard_index], set(ext_blob), schema_ids, include_inverse)


def _successor_kernel(shard_index: int, nodes_blob: array,
                      prop_id: int) -> Dict[int, Tuple[int, ...]]:
    """Sorted forward-successor tuples for nodes owned by one shard."""
    graph = _WORKER_GRAPH
    spo = graph._shards[shard_index].spo
    decode = graph.decode_id
    sort_keys: Dict[int, tuple] = {}

    def key(ident):
        k = sort_keys.get(ident)
        if k is None:
            k = sort_keys[ident] = decode(ident).sort_key()
        return k

    out: Dict[int, Tuple[int, ...]] = {}
    for node in nodes_blob:
        po = spo.get(node)
        targets = po.get(prop_id) if po is not None else None
        out[node] = tuple(sorted(targets, key=key)) if targets else ()
    return out


def _inverse_successor_kernel(shard_index: int, nodes_blob: array,
                              prop_id: int) -> Dict[int, Set[int]]:
    """One shard's partial subject sets for inverse steps (unsorted —
    subjects span shards, so the caller merges before sorting)."""
    graph = _WORKER_GRAPH
    os_ = graph._shards[shard_index].pos.get(prop_id)
    out: Dict[int, Set[int]] = {}
    if os_ is None:
        return out
    for node in nodes_blob:
        subjects = os_.get(node)
        if subjects:
            out[node] = set(subjects)
    return out


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
class ShardExecutor:
    """Owns the fan-out decision and the (lazy) process pool of one
    :class:`ShardedGraph`.

    The pool is generation-stamped: forked workers see a copy-on-write
    snapshot of the graph, so any mutation after the fork makes the
    snapshot stale — the next parallel call tears the pool down and
    forks a fresh one.  ``mode`` resolution and the sequential-fallback
    triggers are documented on the module.
    """

    def __init__(self, graph: ShardedGraph):
        self.graph = graph
        self._pool = None
        self._pool_generation: Optional[int] = None

    @staticmethod
    def mode() -> str:
        value = os.environ.get(PARALLEL_ENV, "auto").strip().lower()
        if value not in ("auto", "sequential", "process"):
            raise ValueError(
                f"{PARALLEL_ENV} must be auto, sequential or process; "
                f"got {value!r}")
        return value

    @staticmethod
    def _fork_available() -> bool:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def active(self) -> bool:
        """Should the next fan-out actually fork?"""
        mode = self.mode()
        if mode == "sequential":
            return False
        if not self._fork_available() or self.graph.num_shards < 2:
            return False
        if mode == "process":
            return True
        cpus = os.cpu_count() or 1
        return cpus >= 2 and len(self.graph) >= PARALLEL_MIN_TRIPLES

    def _ensure_pool(self):
        global _WORKER_GRAPH
        generation = self.graph.generation
        if self._pool is not None and self._pool_generation == generation:
            return self._pool
        self.close()
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing

        workers = min(self.graph.num_shards, max(os.cpu_count() or 1, 2))
        # Set the inheritance global BEFORE the fork so children carry
        # the graph in their copy-on-write address space — nothing is
        # pickled on the way in except the small per-call arguments.
        _WORKER_GRAPH = self.graph
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        self._pool_generation = generation
        return self._pool

    def map_shards(self, kernel, *args) -> List:
        """Run ``kernel(shard_index, *args)`` for every shard, returning
        results in shard order."""
        pool = self._ensure_pool()
        futures = [
            pool.submit(kernel, index, *args)
            for index in range(self.graph.num_shards)
        ]
        return [future.result() for future in futures]

    def map_shards_args(self, kernel: Callable,
                        per_shard_args: List[tuple]) -> List:
        """Like :meth:`map_shards` but with per-shard argument tuples."""
        pool = self._ensure_pool()
        futures = [
            pool.submit(kernel, index, *shard_args)
            for index, shard_args in enumerate(per_shard_args)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        global _WORKER_GRAPH
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_generation = None
            if _WORKER_GRAPH is self.graph:
                _WORKER_GRAPH = None


__all__ = [
    "GraphShard",
    "PARALLEL_ENV",
    "PARALLEL_MIN_TRIPLES",
    "ShardExecutor",
    "ShardedGraph",
    "shard_of",
]
