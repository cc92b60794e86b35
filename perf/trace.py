"""Benchmark-side spans around the program's coarse public callables.

Nothing in ``src/`` knows about tracing.  :func:`installed` replaces a
fixed list of callables — at the module or class attribute where their
caller looks them up — by wrappers that record one span per call into a
:class:`Tracer`, and puts the originals back on exit.  Hot inner
accessors (``pos_ids``, ``successors``, ``Graph.add``/``remove``) are
deliberately left alone: a span there would cost more than the call.

A span is ``[name, start, end, parent, step]``: ``parent`` is the index
of the enclosing span (-1 for a step's root span) and ``step`` the id of
the timed step it belongs to.  A span's *self time* is its duration
minus the durations of its direct children; a *layer* is the span name
without its last component (``facets.session.all_facets`` →
``facets.session``).  These names are the ones a future in-program
``repro.obs`` should adopt.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Dict, Iterator, List

#: (module, attribute path, span name).  A target whose module or
#: attribute no longer exists is skipped, so a later PR may delete a
#: twin engine or a whole layer without touching this file.
TARGETS = (
    ("repro.facets.session", "FacetedSession.class_markers", "facets.session.class_markers"),
    ("repro.facets.session", "FacetedSession.all_facets", "facets.session.all_facets"),
    ("repro.facets.session", "FacetedSession.facet", "facets.session.facet"),
    ("repro.facets.session", "FacetedSession.expand_path", "facets.session.expand_path"),
    ("repro.facets.session", "FacetedSession.select_class", "facets.session.select_class"),
    ("repro.facets.session", "FacetedSession.select_value", "facets.session.select_value"),
    ("repro.facets.session", "FacetedSession.select_range", "facets.session.select_range"),
    ("repro.facets.session", "FacetedSession.select_interval", "facets.session.select_interval"),
    ("repro.facets.session", "FacetedSession.back", "facets.session.back"),
    ("repro.facets.session", "FacetedSession.__init__", "facets.session.open"),
    ("repro.facets.analytics", "FacetedAnalyticsSession.run", "facets.analytics.run"),
    ("repro.facets.analytics", "FacetedAnalyticsSession.analyze_query", "facets.analytics.analyze_query"),
    ("repro.facets.analytics", "FacetedAnalyticsSession.apply_transformation", "facets.analytics.apply_transformation"),
    ("repro.facets.analytics", "AnswerFrame.explore", "facets.analytics.af_explore"),
    ("repro.facets.analytics", "evaluate_hifun", "hifun.evaluate"),
    ("repro.facets.analytics", "translate", "hifun.translate"),
    ("repro.analysis.consistency", "translate", "hifun.translate"),
    ("repro.rdf.columns", "ColumnEngine.follow", "rdf.columns.follow"),
    ("repro.rdf.columns", "ColumnEngine.prefetch", "rdf.columns.prefetch"),
    ("repro.rdf.columns", "ColumnEngine.decode_column", "rdf.columns.decode_column"),
    ("repro.sparql.evaluator", "parse_query", "sparql.parse"),
    ("repro.sparql.evaluator", "evaluate", "sparql.evaluate"),
    ("repro.endpoint.resilient", "ResilientEndpoint.query", "endpoint.resilient_query"),
    ("repro.endpoint.endpoint", "LocalEndpoint.query", "endpoint.local_query"),
    ("repro.analysis.consistency", "check_hifun", "analysis.check_hifun"),
    ("repro.analysis.consistency", "infer_schema", "analysis.infer_schema"),
    ("repro.analysis.consistency", "lint_sparql", "analysis.lint_sparql"),
    ("repro.analysis.consistency", "parse_query", "sparql.parse"),
    ("repro.rdf.graph", "Graph.add_all", "rdf.graph.add_all"),
    ("repro.rdf.sharding", "ShardedGraph.facet_counts", "rdf.sharding.facet_counts"),
)

#: Context-manager factories: one span around ``__enter__`` and one
#: around ``__exit__`` (the temp-class device writes on both).
CONTEXT_TARGETS = (
    ("repro.facets.sparql_backend", "temp_extension", "facets.sparql_backend.temp"),
)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """An in-memory span list with the stack that gives each span its
    parent.  A timed step opens a root span while ``active`` is set;
    wrapped callables record only under an open root, so the untimed
    calls a script makes between steps leave no span."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        self.step = -1
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent, self.step])
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark-side code (e.g. a ``remove`` loop the
        store has no batch call for)."""
        if not self._stack:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- aggregation ---------------------------------------------------
    def self_ms_by_name(self) -> Dict[str, float]:
        """Total self time per span name: a span's duration minus the
        durations of its direct children."""
        own = [(s[2] - s[1]) * 1e3 for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= (span[2] - span[1]) * 1e3
        totals: Dict[str, float] = {}
        for span, ms in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + ms
        return totals

    def dump(self) -> dict:
        return {
            "columns": ["name", "start_s", "end_s", "parent", "step"],
            "spans": self.spans,
        }


class _TracedContext:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        with self.tracer.span(self.name + "_materialize"):
            return self.inner.__enter__()

    def __exit__(self, *exc_info):
        with self.tracer.span(self.name + "_clear"):
            return self.inner.__exit__(*exc_info)


def _traced_call(tracer: Tracer, name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _traced_context(tracer: Tracer, name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedContext(tracer, name, fn(*args, **kwargs))
    return wrapper


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` of a target, or ``None`` when the
    program no longer has it."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # vars(), not getattr: an inherited method must be patched on
        # the class that defines it, and restored to exactly that.
        return owner, attribute, vars(owner)[attribute]
    except (ImportError, AttributeError, KeyError):
        return None


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    undo = []
    try:
        for targets, make in ((TARGETS, _traced_call),
                              (CONTEXT_TARGETS, _traced_context)):
            for module_name, path, name in targets:
                found = _resolve(module_name, path)
                if found is None:
                    continue
                owner, attribute, original = found
                setattr(owner, attribute, make(tracer, name, original))
                undo.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
