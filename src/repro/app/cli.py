"""A command-driven shell over the faceted-analytics session.

Commands (one per line; arguments are whitespace-separated, names are
matched against IRI local names case-insensitively):

====================  ====================================================
``classes [-x]``       class markers (``-x`` expands the hierarchy)
``facets``             property facets of the current state, with counts
``objects [n]``        the right-frame objects
``select <cls>``       click a class marker
``value <path> <v>``   click a facet value (path = ``p1/p2/...``)
``expand <path>``      show the facet at the end of a path
``filter <path> <op> <literal>``  range filter (op ∈ =,<,>,<=,>=,!=)
``group <path> [fn]``  press G (optionally with a derived fn, e.g. YEAR)
``measure <path> <ops>``  press Σ (ops comma-separated, e.g. AVG,SUM)
``count``              Σ choice "count of items"
``pivot <path>``       switch entity type: extension becomes Joins(E, path)
``transform <fco> [p]``  the ⚙ button: derive a feature (count/exists/...)
``inspect <resource>`` browse: view a resource's card
``goto <resource>``    browse: follow an edge to a neighbour
``similar``            browse: the most similar resources
``analyze``            static-check the analytic query + its SPARQL
``run [engine]``       execute the analytic query; prints the answer
                       (engine ∈ sparql,native,row,restrictions)
``explore``            load the last answer as a new dataset
``sparql``             show the SPARQL of the current analytic query
``intent``             show the current state's intention
``search <words>``     keyword search; restart session from the hits
``health``             cache hit rates and endpoint resilience counters
``back``               undo the last transition
``save`` / ``load``    serialize / restore the interaction (JSON)
``help`` / ``quit``
====================  ====================================================

The shell is headless-friendly: :meth:`AnalyticsShell.execute` returns
the output as a string, so it can be scripted and tested.
"""

from __future__ import annotations

import shlex
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.endpoint import (
    EndpointError, FaultModel, LocalEndpoint, NetworkModel,
    RemoteEndpointSimulator, ResilientEndpoint, RetryPolicy,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Term, display_name
from repro.facets.analytics import (
    AnalyticsStateError,
    AnswerFrame,
    FacetedAnalyticsSession,
)
from repro.facets.model import Path, PropertyRef
from repro.facets.persistence import replay_session, session_to_json
from repro.facets.session import EmptyTransitionError
from repro.search.keyword import KeywordIndex
from repro.viz import render_table


class ShellError(ValueError):
    """Raised for malformed commands or unresolvable names."""


class AnalyticsShell:
    """The interactive front end; one instance per loaded graph.

    ``session_factory`` builds the session over a graph (taking the
    session's ``results=`` and ``closed=``); it is remembered so that
    ``search``, ``load`` and ``explore`` — which open fresh sessions —
    inherit the same configuration (e.g. an endpoint with
    retry/deadline knobs behind the counts).  ``search`` and ``load`` open
    theirs over the graph the current session closed: the closure is
    computed once, and what ``transform`` wrote stays.
    """

    def __init__(self, graph: Graph, session_factory: Optional[
            Callable[..., FacetedAnalyticsSession]] = None):
        self.graph = graph
        self._session_factory = session_factory or FacetedAnalyticsSession
        self.session = self._session_factory(graph)
        self._browser = None
        self.last_frame: Optional[AnswerFrame] = None
        self._frames: List[AnswerFrame] = []
        self._running = True
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "classes": self._cmd_classes,
            "facets": self._cmd_facets,
            "objects": self._cmd_objects,
            "select": self._cmd_select,
            "value": self._cmd_value,
            "expand": self._cmd_expand,
            "filter": self._cmd_filter,
            "group": self._cmd_group,
            "measure": self._cmd_measure,
            "count": self._cmd_count,
            "pivot": self._cmd_pivot,
            "transform": self._cmd_transform,
            "inspect": self._cmd_inspect,
            "goto": self._cmd_goto,
            "similar": self._cmd_similar,
            "analyze": self._cmd_analyze,
            "run": self._cmd_run,
            "explore": self._cmd_explore,
            "sparql": self._cmd_sparql,
            "intent": self._cmd_intent,
            "search": self._cmd_search,
            "back": self._cmd_back,
            "health": self._cmd_health,
            "save": self._cmd_save,
            "load": self._cmd_load,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
        }

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _resolve_class(self, name: str) -> IRI:
        lowered = name.lower()
        for marker in self.session.class_markers(expanded=True):
            for candidate in marker.flatten():
                if candidate.cls.local_name().lower() == lowered:
                    return candidate.cls
        # The markers may be degraded (endpoint down, nothing cached);
        # the schema is client-side, so selection stays possible.
        for cls in self.session.schema.classes():
            if isinstance(cls, IRI) and cls.local_name().lower() == lowered:
                return cls
        raise ShellError(f"unknown class {name!r} (try 'classes')")

    def _resolve_property(self, name: str) -> PropertyRef:
        lowered = name.lower()
        for ref in self.session.applicable_properties(include_inverse=True):
            if ref.prop.local_name().lower() == lowered:
                return ref
        # Fall back to any property in the graph (for expanded paths).
        for prop in self.session.schema.properties():
            if prop.local_name().lower() == lowered:
                return PropertyRef(prop)
        raise ShellError(f"unknown property {name!r} (try 'facets')")

    def _resolve_path(self, spec: str) -> Path:
        return tuple(self._resolve_property(part) for part in spec.split("/"))

    def _resolve_value(self, path: Path, text: str) -> Term:
        facet = self.session.facet(path)
        lowered = text.lower()
        for marker in facet.values:
            if marker.label.lower() == lowered:
                return marker.value
        raise ShellError(
            f"no value {text!r} in facet {facet.label} "
            f"(options: {', '.join(v.label for v in facet.values)})"
        )

    @staticmethod
    def _parse_literal(text: str) -> Literal:
        for parser in (int, float):
            try:
                return Literal.of(parser(text))
            except ValueError:
                continue
        import datetime

        try:
            return Literal.of(datetime.date.fromisoformat(text))
        except ValueError:
            return Literal.of(text)

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns its output (never prints)."""
        stripped = line.strip()
        if not stripped:
            return ""
        head, _, rest = stripped.partition(" ")
        if head.lower() == "load":
            # The payload is raw JSON — must not go through shlex.
            command, args = "load", ([rest] if rest else [])
        else:
            parts = shlex.split(stripped)
            command, args = parts[0].lower(), parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            return f"unknown command {command!r}; try 'help'"
        try:
            return handler(args)
        except (ShellError, EmptyTransitionError, ValueError,
                AnalyticsStateError) as exc:
            return f"error: {exc}"
        except EndpointError as exc:
            # Typed endpoint failures (timeouts, open circuit, ...) must
            # not kill the shell — report and keep the session state.
            return f"endpoint error: {type(exc).__name__}: {exc}"

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def _cmd_classes(self, args: List[str]) -> str:
        expanded = "-x" in args

        def render(markers, indent=0):
            lines = []
            for marker in markers:
                lines.append("  " * indent + str(marker))
                lines.extend(render(marker.children, indent + 1))
            return lines

        return "\n".join(render(self.session.class_markers(expanded=expanded)))

    def _cmd_facets(self, args: List[str]) -> str:
        # The batch listing: one shared scan natively; through an endpoint
        # one degrading operation, whose new incidents say what failed.
        engine = self.session.facet_engine
        seen = len(engine.incidents) if engine is not None else 0
        lines = []
        for facet in self.session.all_facets():
            values = ", ".join(str(v) for v in facet.values[:8])
            more = "" if len(facet.values) <= 8 else f", ... ({len(facet.values)} values)"
            lines.append(f"{facet}: {values}{more}")
        if engine is not None:
            lines += [f"unavailable — {event}" for event in engine.incidents[seen:]]
        return "\n".join(lines) or "(no facets)"

    def _cmd_objects(self, args: List[str]) -> str:
        limit = int(args[0]) if args else 20
        labels = [display_name(t) for t in self.session.objects(limit)]
        suffix = (
            "" if len(self.session.state) <= limit
            else f" ... ({len(self.session.state)} total)"
        )
        return ", ".join(labels) + suffix

    def _cmd_select(self, args: List[str]) -> str:
        if len(args) != 1:
            raise ShellError("usage: select <class>")
        cls = self._resolve_class(args[0])
        state = self.session.select_class(cls)
        return f"{cls.local_name()}: {len(state)} objects"

    def _cmd_value(self, args: List[str]) -> str:
        if len(args) != 2:
            raise ShellError("usage: value <path> <value>")
        path = self._resolve_path(args[0])
        value = self._resolve_value(path, args[1])
        state = self.session.select_value(path, value)
        return f"{state.description}: {len(state)} objects"

    def _cmd_expand(self, args: List[str]) -> str:
        if len(args) != 1:
            raise ShellError("usage: expand <p1/p2/...>")
        facet = self.session.facet(self._resolve_path(args[0]))
        values = ", ".join(str(v) for v in facet.values)
        return f"{facet}: {values}"

    def _cmd_filter(self, args: List[str]) -> str:
        if len(args) != 3:
            raise ShellError("usage: filter <path> <op> <literal>")
        path = self._resolve_path(args[0])
        literal = self._parse_literal(args[2])
        state = self.session.select_range(path, args[1], literal)
        return f"{state.description}: {len(state)} objects"

    def _cmd_group(self, args: List[str]) -> str:
        if not args:
            raise ShellError("usage: group <path> [derived-fn]")
        path = self._resolve_path(args[0])
        derived = args[1].upper() if len(args) > 1 else None
        self.session.group_by(path, derived=derived)
        groups = ", ".join(g.label for g in self.session.group_specs) or "(none)"
        return f"grouping by: {groups}"

    def _cmd_measure(self, args: List[str]) -> str:
        if len(args) != 2:
            raise ShellError("usage: measure <path> <op1,op2,...>")
        path = self._resolve_path(args[0])
        operations = tuple(op.strip() for op in args[1].split(","))
        self.session.measure(path, operations)
        return f"measuring {args[0]} with {', '.join(operations)}"

    def _cmd_count(self, args: List[str]) -> str:
        self.session.count_items()
        return "measuring: count of items"

    def _resolve_resource(self, name: str) -> Term:
        lowered = name.lower()
        for term in self.session.graph.all_resources():
            local = getattr(term, "local_name", None)
            if local is not None and local().lower() == lowered:
                return term
        raise ShellError(f"no resource named {name!r}")

    def _render_card(self, card) -> str:
        lines = [f"{card.label}"]
        if card.types:
            lines.append("  a " + ", ".join(t.local_name() for t in card.types))
        for prop, value in card.outgoing:
            lines.append(f"  {prop.local_name()}: {display_name(value)}")
        for source, prop in card.incoming:
            lines.append(f"  ^{prop.local_name()}: {display_name(source)}")
        return "\n".join(lines)

    def _cmd_inspect(self, args: List[str]) -> str:
        """inspect <resource> — start (or continue) browsing a resource."""
        from repro.facets.browser import ResourceBrowser

        if args:
            resource = self._resolve_resource(args[0])
            self._browser = ResourceBrowser(self.session.graph, resource)
        elif getattr(self, "_browser", None) is None:
            raise ShellError("usage: inspect <resource>")
        return self._render_card(self._browser.view())

    def _cmd_goto(self, args: List[str]) -> str:
        """goto <resource> — follow an edge from the inspected resource."""
        if getattr(self, "_browser", None) is None:
            raise ShellError("inspect a resource first")
        if len(args) != 1:
            raise ShellError("usage: goto <resource>")
        target = self._resolve_resource(args[0])
        try:
            card = self._browser.follow(target)
        except ValueError as exc:
            raise ShellError(str(exc)) from exc
        return self._render_card(card)

    def _cmd_similar(self, args: List[str]) -> str:
        """similar — resources most similar to the inspected one."""
        if getattr(self, "_browser", None) is None:
            raise ShellError("inspect a resource first")
        hits = self._browser.similar()
        if not hits:
            return "no similar resources"
        return "\n".join(
            f"  {hit.label} (similarity {hit.similarity:.2f}, "
            f"{hit.shared} shared values)"
            for hit in hits
        )

    def _cmd_pivot(self, args: List[str]) -> str:
        if len(args) != 1:
            raise ShellError("usage: pivot <p1/p2/...>")
        state = self.session.pivot_to(self._resolve_path(args[0]))
        return f"{state.description}: {len(state)} objects"

    def _cmd_transform(self, args: List[str]) -> str:
        """transform <fco> [property] — apply a feature operator (⚙)."""
        if not args:
            raise ShellError(
                "usage: transform <value|exists|count|asfeatures|degree|"
                "avgdegree> [property]"
            )
        from repro.hifun import (
            fco_average_degree,
            fco_count,
            fco_degree,
            fco_exists,
            fco_value,
            fco_values_as_features,
        )

        kind = args[0].lower()
        if kind in ("degree", "avgdegree"):
            operator = fco_degree() if kind == "degree" else fco_average_degree()
        else:
            if len(args) != 2:
                raise ShellError(f"transform {kind} needs a property argument")
            prop = self._resolve_property(args[1]).prop
            factory = {
                "value": fco_value,
                "exists": fco_exists,
                "count": fco_count,
                "asfeatures": fco_values_as_features,
            }.get(kind)
            if factory is None:
                raise ShellError(f"unknown transformation {kind!r}")
            operator = factory(prop)
        refs = self.session.apply_transformation(operator)
        names = ", ".join(r.prop.local_name() for r in refs)
        return f"created {len(refs)} derived facet(s): {names}"

    def _cmd_analyze(self, args: List[str]) -> str:
        """analyze — run the static analyzers over the current analytic
        query and its SPARQL translation; never executes anything."""
        report = self.session.analyze_query()
        counts = []
        if report.errors:
            counts.append(f"{len(report.errors)} error(s)")
        if report.warnings:
            counts.append(f"{len(report.warnings)} warning(s)")
        summary = ", ".join(counts) if counts else "clean"
        return f"{report.render()}\n[{summary}]"

    def _cmd_run(self, args: List[str]) -> str:
        engines = ("sparql", "native", "row", "restrictions")
        engine = args[0] if args else "sparql"
        if engine not in engines:
            raise ShellError(
                f"unknown engine {engine!r}; expected one of {', '.join(engines)}"
            )
        frame = self.session.run(engine)
        self.last_frame = frame
        self._frames.append(frame)
        return render_table(frame.columns, frame.rows)

    def _cmd_explore(self, args: List[str]) -> str:
        if self.last_frame is None:
            raise ShellError("no answer to explore; 'run' first")
        self.session = self._session_factory(self.last_frame.to_graph())
        self.graph = self.session.graph
        return (
            f"loaded the answer as a new dataset "
            f"({len(self.last_frame)} rows); facets: "
            + ", ".join(f.prop.name for f in self.session.all_facets())
        )

    def _cmd_sparql(self, args: List[str]) -> str:
        return self.session.translation().text

    def _cmd_intent(self, args: List[str]) -> str:
        return self.session.state.intention.describe()

    def _cmd_search(self, args: List[str]) -> str:
        if not args:
            raise ShellError("usage: search <keywords>")
        hits = KeywordIndex(self.graph).search(" ".join(args))
        if not hits:
            return "no results"
        self.session = self._session_factory(
            self.session.graph, results=[h.resource for h in hits], closed=True
        )
        rendered = ", ".join(f"{h.label} ({h.score:.1f})" for h in hits[:8])
        return f"{len(hits)} results: {rendered}"

    def _cmd_back(self, args: List[str]) -> str:
        state = self.session.back()
        return f"back to '{state.description}': {len(state)} objects"

    def _cmd_health(self, args: List[str]) -> str:
        """health — cache counters, plus resilience counters when the
        session is endpoint-backed."""
        lines = ["caches:"]
        for stats in self.session.cache_stats().values():
            lines.append(f"  {stats}")
        if self.session.facet_engine is None:
            lines.append("endpoint: none (local session)")
            return "\n".join(lines)
        report = self.session.facet_engine.health()
        outcomes = ", ".join(
            f"{tag}={n}" for tag, n in report["outcomes"].items())
        lines.extend((
            f"queries: {report['queries']} ({outcomes})",
            f"retries: {report['retries']}, "
            f"backoff: {report['backoff_seconds']:.2f}s virtual",
            f"circuit: {report['circuit_state']}",
            f"degradations: {report['incidents']} "
            f"({report['stale_serves']} served stale, "
            f"{report['dropped']} dropped)",
        ))
        return "\n".join(lines)

    def _cmd_save(self, args: List[str]) -> str:
        return session_to_json(self.session)

    def _cmd_load(self, args: List[str]) -> str:
        if not args:
            raise ShellError("usage: load <json>")
        self.session = replay_session(
            self.session.graph, args[0],
            open_session=partial(self._session_factory, closed=True))
        return f"restored: {self.session.state.intention.describe()}"

    def _cmd_help(self, args: List[str]) -> str:
        # The module docstring's second and third paragraphs: the
        # heading and the command table.
        return "\n\n".join(__doc__.split("\n\n")[1:3])

    def _cmd_quit(self, args: List[str]) -> str:
        self._running = False
        return "bye"


def build_shell(argv=None) -> AnalyticsShell:
    """Parse CLI flags and construct the shell (separated for tests).

    The resilience knobs apply to the endpoint-backed commands (facet
    listings, counts, ``run``): ``--network``/``--fault-rate`` put a
    simulated (and optionally flaky) remote endpoint behind the
    session, and ``--retries``/``--timeout`` configure the client-side
    defences of :class:`repro.endpoint.ResilientEndpoint`.  Without any
    of these flags the shell stays fully local and infallible.
    """
    import argparse

    from repro import load_graph
    from repro.datasets import products_graph

    parser = argparse.ArgumentParser(
        prog="repro.app", description="RDF-Analytics interactive shell")
    parser.add_argument("file", nargs="?", default=None,
                        help="file to load: Turtle (.ttl, or any other "
                        "suffix), N-Triples (.nt) or a statistical CSV "
                        "(.csv); default: the bundled products KG")
    parser.add_argument("--network", choices=("local", "offpeak", "peak"),
                        default="local",
                        help="simulate a remote endpoint with this latency model")
    parser.add_argument("--fault-rate", type=float, default=0.0, metavar="P",
                        help="inject endpoint faults with total probability P")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per endpoint query (1 = no retries)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-query deadline in (virtual) seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for latency, fault and backoff sampling")
    parser.add_argument("--analyze", action="store_true",
                        help="strict mode: statically reject ill-typed "
                        "analytic queries before execution")
    args = parser.parse_args(argv)
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")

    graph = load_graph(args.file) if args.file else products_graph()
    endpoint = None
    if (args.network != "local" or args.fault_rate > 0.0
            or args.retries is not None or args.timeout is not None):
        model = {"offpeak": NetworkModel.offpeak(),
                 "peak": NetworkModel.peak(),
                 "local": None}[args.network]
        faults = (FaultModel.uniform(args.fault_rate)
                  if args.fault_rate > 0.0 else None)
        retry = (RetryPolicy(max_attempts=max(1, args.retries))
                 if args.retries is not None else None)
        endpoint = lambda g: ResilientEndpoint(
            RemoteEndpointSimulator(g, model, faults, seed=args.seed)
            if model is not None or faults is not None else LocalEndpoint(g),
            retry=retry, timeout=args.timeout, seed=args.seed)

    return AnalyticsShell(graph, partial(
        FacetedAnalyticsSession, analyze=args.analyze, endpoint=endpoint))


def main() -> None:  # pragma: no cover - interactive entry point
    """Interactive REPL over the bundled products KG (or a file)."""
    shell = build_shell()
    print("RDF-Analytics shell — 'help' lists the commands.")
    while shell.running:
        try:
            line = input("rdfa> ")
        except EOFError:
            break
        output = shell.execute(line)
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    main()
