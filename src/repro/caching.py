"""Bounded caches with hit/miss accounting.

Two cache flavours back the engine's interactive latencies:

* :class:`LRUCache` — a plain bounded map, used for SPARQL text → AST
  (parsing is pure, so entries never go stale).
* :class:`GenerationCache` — an LRU whose entries are stamped with the
  generation of the graph they were computed against.  Every mutation
  of a :class:`repro.rdf.Graph` bumps ``Graph.generation``, so a stale
  entry can never be served: a lookup with a newer generation is a miss
  (counted as an *invalidation*) and evicts the dead entry.  This backs
  the store's SPARQL result cache, ``Graph.sparql_cache``.

Both expose :meth:`stats` returning a :class:`CacheStats` snapshot;
sessions report those through ``cache_stats()`` and the CLI shows them
in ``health``.  What a session derives from one state — its facet
counts and its Answer Frames — is in neither: it is remembered, with
the same generation stamp, on the state it was derived from
(:meth:`repro.facets.session.FacetedSession._per_state`), and reported
in the same :class:`CacheStats` shape, as the ``facets`` and
``answers`` lines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Tuple

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """An immutable snapshot of one cache's counters."""

    name: str
    size: int
    maxsize: int
    hits: int
    misses: int
    evictions: int
    invalidations: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0

    def __str__(self):
        return (
            f"{self.name}: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.size}/{self.maxsize} entries, "
            f"{self.evictions} evicted, {self.invalidations} invalidated"
        )


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry."""

    def __init__(self, maxsize: int = 256, name: str = "lru"):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get(self, key: Hashable, default: Any = MISSING) -> Any:
        entry = self._entries.get(key, MISSING)
        if entry is MISSING:
            self._misses += 1
            return default
        self._hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            size=len(self._entries),
            maxsize=self.maxsize,
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self):
        return f"<{type(self).__name__} {self.stats()}>"


class GenerationCache(LRUCache):
    """An LRU whose entries are only valid for one graph generation.

    ``get(key, generation)`` hits only when the stored stamp equals the
    caller's current generation; a stamp mismatch counts as an
    invalidation, drops the dead entry and reports a miss.  Storing
    never overwrites fresh data with stale data: ``put`` simply stamps
    the entry with the generation the value was computed under, and the
    stamp check at lookup does the rest.
    """

    def get(self, key: Hashable, generation: int, default: Any = MISSING) -> Any:
        entry: Tuple[int, Any] = self._entries.get(key, MISSING)
        if entry is MISSING:
            self._misses += 1
            return default
        stamp, value = entry
        if stamp != generation:
            del self._entries[key]
            self._invalidations += 1
            self._misses += 1
            return default
        self._hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, generation: int, value: Any) -> None:  # type: ignore[override]
        super().put(key, (generation, value))


__all__ = ["CacheStats", "GenerationCache", "LRUCache", "MISSING"]
