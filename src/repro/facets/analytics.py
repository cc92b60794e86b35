"""The analytics extension of faceted search (§5.1, §5.2.2, §5.3.3).

:class:`FacetedAnalyticsSession` extends :class:`FacetedSession` with the
GUI actions of Fig. 5.1 (right):

* **G button** (:meth:`group_by`) — group the analytic results by a
  facet or property path; clicking several facets builds a pairing;
* **Σ button** (:meth:`measure`) — choose the measured facet and the
  aggregate function(s) (avg, sum, max, ...);
* **filter button** — value ranges, inherited from the base session
  (:meth:`FacetedSession.select_range`);
* **transformation button** (:meth:`derive`) — apply a derived-attribute
  function (e.g. YEAR of a date facet) before grouping, per the
  *Special cases* paragraph of §5.1;
* **Answer Frame** (:class:`AnswerFrame`) — the tabular result of
  :meth:`run`: the same frame whichever engine fills it, its column
  names and their roles being the HIFUN query's
  (:meth:`~repro.hifun.query.HifunQuery.answer_columns`).  It can be
  *loaded as a new dataset* (:meth:`AnswerFrame.explore`, §5.3.3): each
  answer row becomes a fresh resource with one triple per column, and a
  new analytics session opens over it — subsequent restrictions are
  HAVING clauses over the original data, giving nested analytic queries
  of unlimited depth.

Execution follows Table 5.1: the HIFUN query synthesized from the button
state is translated to SPARQL rooted at a temporary class ``temp``, and
evaluated (locally or against a simulated endpoint) over a read-only
view of the graph in which exactly the current extension has that type.

Opened with an ``endpoint``, the same session takes its counts and its
``"sparql"`` / ``"restrictions"`` runs from that fallible endpoint (the
Fig. 8.3 alternative; state stays client-side).  Counts degrade
(:mod:`repro.facets.sparql_backend`), transitions never raise endpoint
errors, and a run surfaces them typed: an answer has no stale stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence,
    Tuple, Union,
)

from repro.rdf.graph import Graph
# APP: the namespace of machinery terms (the temporary class of Table 5.1
# and the answer-frame vocabulary of §5.3.3).
from repro.rdf.namespace import APP, RDF, TEMP
from repro.rdf.overlay import ExtensionView
from repro.rdf.terms import IRI, Term
from repro.hifun.attributes import (
    AttributeExpr,
    Derived,
    compose_path,
    pair,
)
from repro.hifun.evaluator import (
    evaluate_hifun, evaluate_hifun_row, row_sort_key,
)
from repro.hifun.query import HifunQuery
from repro.hifun.translator import Translation, translate
from repro.facets.model import AnyPath, PropertyRef
from repro.facets.session import FacetedSession
from repro.facets.sparql_backend import SparqlFacetEngine

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport

#: The temporary class the current extension is typed under during a run
#: — the one the session's extension view populates.
TEMP_CLASS = TEMP

#: The virtual seconds a user thinks between two transitions of an
#: endpoint-backed session: what lets an open circuit reach its recovery
#: window inside a no-sleep simulation.
THINK_SECONDS = 2.0


class AnalyticsStateError(RuntimeError):
    """Raised when `run` is called with an incomplete button state."""


@dataclass(frozen=True)
class GroupSpec:
    """One G-button selection: a path, optionally wrapped by a derived
    function (YEAR, MONTH, ...)."""

    path: Tuple[PropertyRef, ...]
    derived: Optional[str] = None

    def to_attribute(self) -> AttributeExpr:
        return _path_to_attribute(self.path, self.derived)

    @property
    def label(self) -> str:
        base = " ▷ ".join(step.name for step in self.path)
        return f"{self.derived.lower()}({base})" if self.derived else base


@dataclass(frozen=True)
class MeasureSpec:
    """The Σ-button selection: measured path plus aggregate operations."""

    path: Optional[Tuple[PropertyRef, ...]]
    operations: Tuple[str, ...]
    derived: Optional[str] = None

    def to_attribute(self) -> Optional[AttributeExpr]:
        if self.path is None:
            return None
        return _path_to_attribute(self.path, self.derived)


def _path_to_attribute(path: Tuple[PropertyRef, ...],
                       derived: Optional[str] = None) -> AttributeExpr:
    """A facet path (and the ⚙ function over its values) as the HIFUN
    attribute it is."""
    expr = compose_path(*path)
    return Derived(derived, expr) if derived else expr


class AnswerFrame:
    """The Answer Frame of Fig. 5.1: the rows of ``query``'s answer under
    its column names, and reload support."""

    def __init__(
        self,
        columns: Sequence[str],
        rows: Sequence[Tuple[Optional[Term], ...]],
        query: HifunQuery,
    ):
        self.columns = tuple(columns)
        self.rows = [tuple(row) for row in rows]
        self.query = query

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> List[Optional[Term]]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    # -- what role each of the query's columns plays ---------------------
    @property
    def grouping_columns(self) -> Tuple[str, ...]:
        """The columns holding the values of the grouping paths."""
        return self.query.answer_columns()[:len(self.query.grouping_paths)]

    @property
    def aggregate_columns(self) -> List[Tuple[str, str]]:
        """``(operation, column)`` of every aggregate, in order."""
        names = self.query.answer_columns()
        return list(zip(self.query.operations,
                        names[len(self.query.grouping_paths):]))

    @property
    def count_column(self) -> Optional[str]:
        """The column of group cardinalities (``with_count``), if any."""
        return self.query.answer_columns()[-1] if self.query.with_count else None

    def to_graph(self) -> Graph:
        """Load the answer as a new RDF dataset (§5.3.3).

        Each tuple gets a fresh identifier ``t_i`` and produces the k
        triples ``(t_i, A_j, t_ij)``; every ``t_i`` is typed under
        ``APP.AnswerRow`` so the new dataset is immediately facetable.
        """
        rdf_type, answer_row = RDF.type, APP.AnswerRow
        column_props = [self.column_property(name) for name in self.columns]
        triples = [(prop, rdf_type, RDF.Property) for prop in column_props]
        for index, row in enumerate(self.rows, start=1):
            subject = APP.term(f"t{index}")
            triples.append((subject, rdf_type, answer_row))
            triples += [(subject, prop, value)
                        for prop, value in zip(column_props, row)
                        if value is not None]
        return Graph(triples)

    def explore(self) -> "FacetedAnalyticsSession":
        """*Explore with FS* (Fig. 5.2): a new analytics session over the
        answer loaded as a dataset — restrictions there are HAVING
        clauses over the original data."""
        return FacetedAnalyticsSession(self.to_graph())

    def column_property(self, name: str) -> IRI:
        """The property under which a column is loaded by :meth:`to_graph`."""
        return APP.term(name)

    # -- the "Extra Columns" actions of §5.1 ----------------------------
    def select_columns(self, columns: Sequence[str]) -> "AnswerFrame":
        """Display-level projection: keep only the named columns.

        Removing a *grouping* column changes the query, not the display:
        press its G button again (:meth:`FacetedAnalyticsSession.group_by`
        toggles) and run.
        """
        indexes = [self.columns.index(name) for name in columns]
        rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return AnswerFrame(columns, rows, self.query)

    def __repr__(self):
        return f"<AnswerFrame {len(self.rows)}×{len(self.columns)} {list(self.columns)}>"


class FacetedAnalyticsSession(FacetedSession):
    """Faceted search extended with the analytic actions of §5.1."""

    def __init__(self, graph: Graph, results: Optional[Iterable[Term]] = None,
                 closed: bool = False, analyze: bool = False,
                 endpoint: Optional[Callable[[Graph], Any]] = None):
        """``endpoint`` builds, over the closed graph, what the counts
        and SPARQL runs go through — e.g.
        ``lambda g: ResilientEndpoint(LocalEndpoint(g))`` (``query``,
        ``advance`` and ``report`` are used)."""
        super().__init__(graph, results=results, closed=closed, analyze=analyze)
        self.endpoint = endpoint(self.graph) if endpoint is not None else None
        #: Where the counts come from when not from the index kernel.
        self.facet_engine = (SparqlFacetEngine(self.graph, self.endpoint)
                             if self.endpoint is not None else None)
        self._groups: List[GroupSpec] = []
        self._measure: Optional[MeasureSpec] = None
        self._with_count = False

    # ------------------------------------------------------------------
    # Button state
    # ------------------------------------------------------------------
    def group_by(self, path: AnyPath, derived: Optional[str] = None) -> GroupSpec:
        """Press the G button on a facet (or expanded path).

        Pressing G on several facets accumulates grouping attributes
        (a pairing); pressing it again on the same path removes it —
        exactly the toggle behaviour described under *States of G and Σ
        buttons* in §5.1.
        """
        spec = GroupSpec(self._normalize_path(path), derived)
        for existing in self._groups:
            if existing == spec:
                self._groups.remove(existing)
                return spec
        self._groups.append(spec)
        return spec

    def measure(self, path: Optional[AnyPath],
                operations: Union[str, Sequence[str]] = "COUNT",
                derived: Optional[str] = None) -> MeasureSpec:
        """Press the Σ button on a facet and pick aggregate function(s)."""
        if isinstance(operations, str):
            operations = (operations,)
        normalized = self._normalize_path(path) if path is not None else None
        self._measure = MeasureSpec(normalized, tuple(op.upper() for op in operations), derived)
        return self._measure

    def count_items(self) -> None:
        """Σ choice "count of items": measure the identity function."""
        self._measure = MeasureSpec(None, ("COUNT",))

    def derive(self, path: AnyPath, function: str) -> GroupSpec:
        """The transformation button: group by a derived attribute
        (e.g. ``derive(EX.releaseDate, "YEAR")``)."""
        return self.group_by(path, derived=function.upper())

    def with_count(self, enabled: bool = True) -> None:
        """Also report group cardinalities (count information)."""
        self._with_count = enabled

    def clear_analytics(self) -> None:
        self._groups = []
        self._measure = None
        self._with_count = False

    # ------------------------------------------------------------------
    # The transformation button (⚙) of §5.1 "Special cases"
    # ------------------------------------------------------------------
    def apply_transformation(self, operator) -> list:
        """Apply a Feature Creation Operator to the current extension.

        The §5.1 *Special cases* button: when a facet is multi-valued or
        has missing values (violating the HIFUN prerequisites), the user
        applies a transformation — an FCO of Table 4.1 — and the derived
        feature becomes an ordinary, functional facet of the session,
        usable for filtering, grouping and measuring.

        Returns the list of :class:`PropertyRef` facets created — one for
        most operators, one per observed value for FCO4
        (``p.values.AsFeatures``).
        """
        from repro.hifun.features import apply_feature

        derived = apply_feature(self.graph, self.extension, operator)
        predicates = sorted(derived.all_predicates(), key=lambda t: t.sort_key())
        self.graph.add_all(derived.triples())
        return [PropertyRef(p) for p in predicates]

    @property
    def group_specs(self) -> List[GroupSpec]:
        return list(self._groups)

    @property
    def measure_spec(self) -> Optional[MeasureSpec]:
        return self._measure

    # ------------------------------------------------------------------
    # HIFUN synthesis and execution
    # ------------------------------------------------------------------
    def hifun_query(self) -> HifunQuery:
        """The HIFUN query corresponding to the current button state
        (§5.2.2: how G/Σ clicks change the intention)."""
        if self._measure is None:
            raise AnalyticsStateError(
                "no measure selected — press the Σ button on a facet first"
            )
        grouping: Optional[AttributeExpr]
        if self._groups:
            grouping = pair(*[g.to_attribute() for g in self._groups])
        else:
            grouping = None
        return HifunQuery(
            grouping=grouping,
            measuring=self._measure.to_attribute(),
            operation=self._measure.operations,
            with_count=self._with_count,
        )

    def translation(self) -> Translation:
        """The SPARQL translation of the current analytic query, rooted
        at the temporary extension class (Table 5.1)."""
        return translate(self.hifun_query(), root_class=TEMP_CLASS)

    # ------------------------------------------------------------------
    # Static analysis (repro.analysis)
    # ------------------------------------------------------------------
    def analyze_query(self, query: Optional[HifunQuery] = None,
                      root_class: Optional[IRI] = None) -> AnalysisReport:
        """Statically analyze an analytic query (default: the current
        button state) and its SPARQL translation.

        Returns the merged :class:`repro.analysis.AnalysisReport` of the
        HIFUN checker, the SPARQL linter over the translation, and the
        cross-layer consistency check — without touching the triple
        store beyond (cached) schema inference.
        """
        from repro.analysis import check_translation

        if query is None:
            query = self.hifun_query()
        return check_translation(
            query, root_class=root_class or TEMP_CLASS, graph=self.graph
        )

    def _static_check(self, query: HifunQuery,
                      root_class: Optional[IRI] = None) -> None:
        """Strict-mode gate: when the session was opened with
        ``analyze=True``, reject ill-typed queries *before* any
        evaluation; warnings are emitted but never block."""
        if not self.analyze:
            return
        import warnings

        from repro.analysis import check_hifun, infer_schema

        report = check_hifun(query, infer_schema(self.graph), root_class,
                             self.graph)
        report.raise_if_errors()
        for diagnostic in report.warnings:
            warnings.warn(str(diagnostic), stacklevel=3)

    def hifun_query_with_restrictions(self) -> Tuple[HifunQuery, Optional[IRI]]:
        """The state intention folded into the HIFUN query (§5.5).

        Instead of rooting the query at the ``temp`` class, the
        state's conditions become HIFUN grouping restrictions — the
        query then runs self-contained against the original graph
        (Example 1–4 of §5.1 are written in exactly this form).

        Returns ``(query, root_class)``.  Raises
        :class:`AnalyticsStateError` when the intention has no class
        click (the fold needs its analysis root, §4.1.2), when a
        condition's ``restriction()`` says it has no HIFUN form
        (multi-value clicks, extra class conditions) or the session is
        seeded or pivoted — callers then fall back to the temp-class
        evaluation.
        """
        intention = self.state.intention
        if intention.seeds is not None:
            raise AnalyticsStateError(
                "a seeded session's intention is not expressible as "
                "HIFUN restrictions"
            )
        if intention.pivot is not None:
            raise AnalyticsStateError(
                "a pivoted (entity-switched) state's intention is not "
                "expressible as HIFUN restrictions; use the temp-class "
                "evaluation (engine='sparql')"
            )
        if intention.root_class is None:
            raise AnalyticsStateError(
                "an intention without a class click has no analysis root "
                "for HIFUN restrictions"
            )
        restrictions = []
        for condition in intention.conditions:
            restriction = condition.restriction()
            if restriction is None:
                raise AnalyticsStateError(
                    f"condition '{condition}' has no HIFUN restriction form")
            restrictions.append(restriction)
        base = self.hifun_query()
        return base.restricted(grouping=restrictions), intention.root_class

    def _extension_view(self) -> ExtensionView:
        """The graph with the current extension typed under the
        temporary class of Table 5.1 — virtually: the view the SPARQL
        pipeline is evaluated over, so that a read writes nothing.

        It is built from the state's ids as they are, less the literals
        (:meth:`~repro.rdf.graph.Graph.resource_ids` decodes only the
        ids no triple has as subject).  The evaluator reads it in ids
        alone (``triples_ids`` / ``count_ids``).  It is remembered on
        the state, so the count queries and the runs of one state share
        it, also after coming *back* to the state.
        """
        state = self.state
        return self._per_state("view", lambda: ExtensionView(
            self.graph, TEMP, state.unknown, state.ids))

    def _per_state(self, key, build, stat=None):
        """As the base session's — except that through an endpoint a
        count operation (``stat="facets"``) is answered by
        :attr:`facet_engine` over the extension view and never
        remembered on the state: what a fallible remote said (maybe
        stale) is no fact about it."""
        if stat == "facets" and self.facet_engine is not None:
            return self.facet_engine.counted(
                key, self._extension_view(), self._class_tree)
        return super()._per_state(key, build, stat)

    def _push(self, ids, intention, description):
        state = super()._push(ids, intention, description)
        if self.endpoint is not None:
            self.endpoint.advance(THINK_SECONDS)
        return state

    def back(self):
        if self.endpoint is not None:
            self.endpoint.advance(THINK_SECONDS)
        return super().back()

    def run(self, engine: str = "sparql", endpoint: Any = None) -> AnswerFrame:
        """Execute the analytic query over the current state's extension.

        ``engine``:

        * ``"sparql"`` — the translation rooted at the ``temp`` class
          of the session's extension view (Table 5.1; the default);
        * ``"native"`` — the same, always in process;
        * ``"row"`` — the item-at-a-time reference evaluator the
          translation is verified against (identical answers where
          HIFUN's prerequisites hold, §4.1);
        * ``"restrictions"`` — fold the intention into HIFUN
          restrictions (§5.5) and run the self-contained translation
          over the graph, rooted at the intention's class.

        In process, :func:`~repro.hifun.evaluator.evaluate_hifun`
        evaluates the translation, never through a result cache.  Given
        an ``endpoint`` — by default the session's own, if it has one —
        ``"sparql"`` and ``"restrictions"`` send its text there instead
        (e.g. a :class:`~repro.endpoint.ResilientEndpoint`); its typed
        errors propagate to the caller.
        No engine writes to the graph: a run — failed or not — leaves
        its generation, and every cache stamped with it, as they were.

        The frame is remembered on the state under ``("answer", engine,
        query, endpoint)`` (:meth:`_per_state`, the ``answers`` line of
        :meth:`cache_stats`): a repeated press on the state — also after
        coming *back* to it — is served the kept rows in a fresh frame,
        on every engine, until the graph changes.  A failed run,
        strict-mode refusals included, is remembered nowhere.
        """
        if endpoint is None:
            endpoint = self.endpoint
        if engine == "restrictions":
            query, root_class = self.hifun_query_with_restrictions()
        elif engine in ("sparql", "native", "row"):
            query, root_class = self.hifun_query(), None
        else:
            raise ValueError(f"unknown engine {engine!r}")

        def build():
            self._static_check(query, root_class)
            if engine == "row":
                answer = evaluate_hifun_row(self.graph, query,
                                            items=self.extension)
                return query.answer_columns(), answer.rows()
            if engine == "restrictions":
                store, root, overlay = self.graph, root_class, None
            else:
                store = overlay = self._extension_view()
                root = TEMP_CLASS
            if endpoint is None or engine == "native":
                answer = evaluate_hifun(store, query, root_class=root)
                return query.answer_columns(), answer.rows()
            translation = translate(query, root_class=root)
            result = endpoint.query(translation.text, overlay=overlay)
            columns = translation.answer_columns  # the query's, named once
            rows = [tuple(row.get(c) for c in columns) for row in result]
            rows.sort(key=row_sort_key)
            return columns, rows

        columns, rows = self._per_state(
            ("answer", engine, query, endpoint), build, stat="answers")
        return AnswerFrame(columns, rows, query)
