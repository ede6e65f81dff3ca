"""The CEPR engine facade — the main public entry point.

>>> from repro import CEPREngine, Event
>>> engine = CEPREngine()
>>> query = engine.register_query('''
...     PATTERN SEQ(Buy b, Sell s)
...     WHERE b.symbol == s.symbol AND s.price > b.price
...     WITHIN 50 EVENTS
...     RANK BY s.price - b.price DESC
...     LIMIT 3
... ''')
>>> _ = engine.push(Event("Buy", 1.0, symbol="ACME", price=10.0))
>>> _ = engine.push(Event("Sell", 2.0, symbol="ACME", price=14.0))
>>> _ = engine.flush()
>>> [m.rank_values for m in query.final_ranking()]
[(4.0,)]
"""

from __future__ import annotations

from typing import Iterable

from repro.events.event import Event
from repro.events.schema import SchemaError, SchemaRegistry
from repro.events.time import (
    Ingress,
    OutOfOrderError,
    SequenceAssigner,
    merge_admission,
    rejected,
)
from repro.language.ast_nodes import Query
from repro.language.errors import CEPRSemanticError
from repro.language.parser import parse_query
from repro.language.semantics import analyze, analyze_member
from repro.observability import instruments
from repro.observability.flightrec import current as flightrec_current
from repro.observability.registry import MetricsRegistry
from repro.observability.tracing import (
    EmissionTrace,
    Tracer,
    build_emission_trace,
    tracing_enabled,
)
from repro.ranking.emission import Emission
from repro.runtime.metrics import EngineMetrics
from repro.runtime.query import Delivery, Pipeline, RegisteredQuery, group_key, groupable
from repro.runtime.router import EventRouter, SharedExecutionIndex
from repro.runtime.sinks import SinkLike, Subscription


def _seat(delivery: Delivery) -> int:
    return delivery[0].seat


class CEPREngine(instruments.TelemetryViews):
    """A multi-query complex-event-processing engine with ranking support.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.events.schema.SchemaRegistry`.  Declared
        schemas enable event validation and — through attribute domains —
        score-bound pruning.
    strict_schema:
        When true, events whose type has no registered schema are rejected.
        It, ``strict_time`` and ``max_lateness`` configure :attr:`ingress`
        (DESIGN.md, "Admission"), which a runner takes over.
    enable_pruning:
        Master switch for score-bound pruning (per-query conditions still
        apply: ``RANK BY`` + ``LIMIT`` + tumbling emission).  The ablation
        benchmarks flip this.
    strict_time:
        When true, out-of-order timestamps raise instead of being counted.
    lenient_errors:
        When true, a predicate or rank key that fails to evaluate over
        dirty data (missing attribute, type mismatch, division by zero)
        makes that run/match fail quietly — counted in the query's matcher
        stats — instead of raising out of ``push``.
    max_lateness:
        When set, ingested events are reordered through a
        :class:`~repro.events.time.LatenessBuffer` with this bound (in
        stream-time seconds) before matching, so bounded out-of-order
        feeds are handled correctly at the cost of that much latency.
        Events violating the bound are dropped and counted
        (``late_drops_total``; ``engine.ingress.lateness.late_drops``).
    max_derivation_depth:
        Bound on YIELD cascades: an event derived from an event derived
        from ... more than this many levels deep raises (indirect feedback
        loop).  Direct self-feedback is rejected at registration.
    sequencer:
        Optional :class:`~repro.events.time.SequenceAssigner` override.
        The sharded runtime passes a
        :class:`~repro.events.time.PreassignedSequencer` so shard-local
        engines keep the global sequence numbers stamped at dispatch
        instead of renumbering their subsequence of the stream.
    tracing:
        ``True`` attaches a span :class:`~repro.observability.tracing.
        Tracer` to every registered query; ``False`` never does; ``None``
        (default) follows the module-level switch
        (:func:`~repro.observability.tracing.enable_tracing`) at
        construction time.  Flip at runtime with :meth:`set_tracing`.
    shared_execution:
        Cross-query sharing (on by default; see docs/SHARED_EXECUTION.md):
        distinct self-contained predicates and stage-0 gates are evaluated
        once per event no matter how many queries consult them, queries
        provably unaffected by an event are not offered it at all, and
        queries equal but for ``NAME`` and ``LIMIT`` run as one pipeline.  Output is byte-identical either
        way — the differential suite enforces it — so turning this off is
        only interesting for benchmarks (the independent baseline).
    sanitize:
        Attach the CEPRSan invariant sanitizer (see docs/SANITIZER.md):
        hot-path checks for ranking order, score-bound soundness, matcher
        coherence, sequence monotonicity, shared-index refcounts,
        snapshot round-trips, and cross-thread mutation.  ``None``
        (default) follows the ``CEPR_SANITIZE`` environment variable;
        the instrumentation is attached at construction only, so a plain
        engine carries zero sanitizer cost.
    """

    def __init__(
        self,
        registry: SchemaRegistry | None = None,
        strict_schema: bool = False,
        enable_pruning: bool = True,
        strict_time: bool = False,
        lenient_errors: bool = False,
        max_lateness: float | None = None,
        max_derivation_depth: int = 16,
        sequencer: SequenceAssigner | None = None,
        tracing: bool | None = None,
        shared_execution: bool = True,
        sanitize: bool | None = None,
    ) -> None:
        self.registry = registry
        self.enable_pruning = enable_pruning
        self.lenient_errors = lenient_errors
        #: admits pushed events (None behind a runner: it admits them).
        self.ingress: Ingress | None = Ingress(
            registry, strict_schema, strict_time, max_lateness
        )
        self.max_derivation_depth = max_derivation_depth
        #: total derived (YIELD) events processed.
        self.derived_events = 0
        self._sequencer = sequencer or SequenceAssigner()
        #: cross-query gate refcounts and memo (None = independent).
        self.shared: SharedExecutionIndex | None = (
            SharedExecutionIndex() if shared_execution else None
        )
        self._router = EventRouter(shared=self.shared)
        self._queries: dict[str, RegisteredQuery] = {}
        #: registrations so far (each query's ``seat``).
        self._seats = 0
        #: group key -> the pipeline of the latest group with that key,
        #: which queries may join until it processes an event.
        self._open_groups: dict[tuple, Pipeline] = {}
        self.metrics = EngineMetrics()
        want_tracing = tracing_enabled() if tracing is None else tracing
        self.tracer: Tracer | None = Tracer() if want_tracing else None
        self._auto_name_counter = 0
        self._flushed = False
        self._closed = False
        #: lazily built, engine-owned live registry (see metrics_registry).
        self._registry_view: MetricsRegistry | None = None
        #: black-box flight recorder, captured once at construction so the
        #: disabled hot-path cost is a single ``is None`` check per event.
        self._flightrec = flightrec_current()
        self._flightrec_clock = 0
        #: CEPRSan reporter and invariant checker; None on plain engines
        #: (the common case) so hot paths never even branch on them.
        self.sanitizer = None
        self._invariants = None
        if sanitize is None:
            from repro.sanitize.core import sanitizer_enabled

            sanitize = sanitizer_enabled()
        if sanitize:
            from repro.sanitize import Sanitizer, attach_engine_sanitizer

            self.sanitizer = Sanitizer(scope="engine")
            self._invariants = attach_engine_sanitizer(self)

    # -- registration -------------------------------------------------------------

    def register_query(
        self,
        query: str | Query,
        name: str | None = None,
        collect_results: bool = True,
    ) -> RegisteredQuery:
        """Parse, analyse, compile, and activate one CEPR-QL query.

        ``query`` may be query text or an already-parsed AST.  The query
        name comes from (in priority order) the ``name`` argument, the
        query's ``NAME`` clause, or an auto-generated ``q<N>``.

        With shared execution, a query equal to an earlier one but for
        ``NAME`` and ``LIMIT`` joins its group — one pipeline for both —
        if that group has not processed an event yet
        (docs/SHARED_EXECUTION.md, "Query groups"); it takes its group's
        analysis instead of running its own.
        """
        ast = parse_query(query) if isinstance(query, str) else query
        grouping = self.shared is not None and groupable(ast)
        key = pipeline = None
        if grouping:
            key = group_key(ast)
            pipeline = self._open_groups.get(key)
            if pipeline is not None and pipeline.metrics.events_routed:
                pipeline = None  # it has processed an event: start a group of its own
        if pipeline is None:
            analyzed = analyze(ast, self.registry)
        else:
            analyzed = analyze_member(pipeline.analyzed, ast, self.registry)
        resolved_name = name or ast.name or self._next_auto_name()
        if resolved_name in self._queries:
            raise CEPRSemanticError(f"a query named {resolved_name!r} is already registered")
        registered = RegisteredQuery(
            resolved_name,
            analyzed,
            registry=self.registry,
            enable_pruning=self.enable_pruning,
            collect_results=collect_results,
            lenient_errors=self.lenient_errors,
            shared=self.shared,
            pipeline=pipeline,
        )
        registered.tracer = self.tracer
        registered.seat = self._seats
        self._seats += 1
        self._queries[resolved_name] = registered
        if pipeline is None:
            self._route(registered.pipeline)
            if key is not None:
                self._open_groups[key] = registered.pipeline
        if self._flightrec is not None:
            self._flightrec.record("register", query=resolved_name)
        return registered

    def unregister_query(self, name: str) -> None:
        """Deactivate and fully detach one query.

        Beyond removing it from its group (and the group, once empty, from
        the router), the query's sinks are closed and its per-query series
        are pruned from the engine's live metrics registry — otherwise
        ``cepr stats`` (and the serving layer's STATS frame) would keep
        reporting the dead query, and re-registering the same name would
        collide with the stale callback instruments.  A group carries on
        with its other members, with the same K.
        """
        registered = self._queries.pop(name, None)
        if registered is None:
            raise KeyError(f"no query named {name!r}")
        pipeline = registered.pipeline
        pipeline.remove(registered)
        if not pipeline.members:
            self._router.remove(pipeline)
            self._open_groups = {
                key: open_pipeline
                for key, open_pipeline in self._open_groups.items()
                if open_pipeline is not pipeline
            }
        registered.tracer = None
        registered.flush_sinks()
        registered.close_sinks()
        if self._registry_view is not None:
            self._registry_view.prune(query=name)
        if self._flightrec is not None:
            self._flightrec.record("unregister", query=name)

    def _close_groups(self) -> None:
        """Heartbeats, the flush and a restore move pipelines: no group
        formed so far may be joined."""
        self._open_groups.clear()

    def subscribe(
        self, query_name: str, target: SinkLike, kinds=None
    ) -> Subscription:
        """Subscribe to one query's emissions by name.

        Convenience wrapper over
        :meth:`~repro.runtime.query.RegisteredQuery.subscribe`; see there
        for the ``target``/``kinds`` contract.  Raises :class:`KeyError`
        for an unknown query name.
        """
        if query_name not in self._queries:
            raise KeyError(f"no query named {query_name!r}")
        return self._queries[query_name].subscribe(target, kinds=kinds)

    def query(self, name: str) -> RegisteredQuery:
        return self._queries[name]

    def queries(self) -> list[RegisteredQuery]:
        return list(self._queries.values())

    def pipelines(self) -> list[Pipeline]:
        """The query groups' pipelines, in the order the router offers
        events to them."""
        return self._router.queries()

    # -- ingestion -----------------------------------------------------------------

    def push(self, event: Event) -> list[Emission]:
        """Ingest one event; returns emissions triggered across all queries.

        With ``max_lateness`` configured, the event may be buffered for
        reordering and the returned emissions belong to whatever earlier
        events the new watermark released.
        """
        if self._flushed:
            raise RuntimeError("engine already flushed; create a new engine")
        admitted = [event] if self.ingress is None else self.ingress.admit(event)
        metrics = self.metrics
        metrics.start()
        pushed = metrics.events_pushed
        try:
            emissions: list[Emission] = []
            for released in admitted:
                emissions.extend(self._dispatch(released))
            return emissions
        finally:
            metrics.on_call(metrics.events_pushed - pushed)

    def _dispatch(self, event: Event, depth: int = 0) -> list[Emission]:
        self._sequencer.assign(event)
        # Counted per event; the clock is read once per call (on_call).
        self.metrics.events_pushed += 1
        shared = self.shared
        if shared is not None:
            # Arm the per-event memo: every routed query's stage-gate
            # checks for this event now share one evaluation per gate.
            shared.begin_event(event)
        pending: list[Delivery] = []
        for registered in self._router.route(event):
            if shared is not None and registered.skip_if_inert(event):
                shared.events_gated += 1
                continue
            delivered = registered.process(event)
            if delivered:
                pending.extend(delivered)
        emissions: list[Emission] = []
        if pending:
            emissions = self._deliver(pending, depth)
        if self._flightrec is not None:
            self._flightrec_tick(event, pending)
        return emissions

    def _deliver(self, pending: list[Delivery], depth: int | None) -> list[Emission]:
        """Hand members their emissions in registration order, as one
        engine running every query separately would; then (``depth`` not
        ``None``) feed YIELD-derived events back."""
        pending.sort(key=_seat)  # stable: a member's own emissions keep their order
        emissions: list[Emission] = []
        derived: list[Event] = []
        for member, emission in pending:
            member.deliver(emission)
            emissions.append(emission)
            if depth is not None and member.has_yield:
                derived.extend(member.derive_events([emission]))
        if derived:
            emissions.extend(self._cascade(derived, depth or 0))
        return emissions

    def _flightrec_tick(self, event: Event, delivered: list[Delivery]) -> None:
        """Armed-recorder taps: coarse by design (budgeted overhead).

        Per event this is one counter increment; a frame is recorded only
        for emissions (rare relative to events) and every 256th event (a
        compact progress snapshot), so the armed cost stays inside the E19
        telemetry budget.
        """
        recorder = self._flightrec
        assert recorder is not None
        self._flightrec_clock += 1
        for member, emission in delivered:
            recorder.record(
                "emission",
                query=member.name,
                emission_kind=emission.kind.value,
                seq=emission.at_seq,
                matches=len(emission.ranking),
            )
        if self._flightrec_clock % 256 == 0:
            recorder.record(
                "engine",
                events=self.metrics.events_pushed,
                seq=event.seq,
                event_ts=event.timestamp,
                queries=len(self._queries),
            )

    def _cascade(self, derived: list[Event], depth: int) -> list[Emission]:
        """Feed YIELD-derived events back through the engine."""
        if not derived:
            return []
        if depth >= self.max_derivation_depth:
            raise RuntimeError(
                f"YIELD cascade exceeded max_derivation_depth="
                f"{self.max_derivation_depth}; check for feedback loops "
                f"between derived event types"
            )
        emissions: list[Emission] = []
        for event in derived:
            self.derived_events += 1
            emissions.extend(self._dispatch(event, depth + 1))
        return emissions

    def push_batch(self, events: Iterable[Event]) -> list[Emission]:
        """Ingest a batch of events through a hoisted hot path.

        Semantically identical to calling :meth:`push` per event, but the
        per-call guards and attribute lookups are hoisted out of the loop,
        which matters when a consumer thread drains a queue in chunks (the
        sharded runtime) or replays a recorded stream (CLI, backtests).
        """
        if self._flushed:
            raise RuntimeError("engine already flushed; create a new engine")
        metrics = self.metrics
        metrics.start()
        pushed = metrics.events_pushed
        emissions: list[Emission] = []
        extend = emissions.extend
        dispatch = self._dispatch
        ingress = self.ingress
        try:
            if ingress is None:
                for event in events:
                    extend(dispatch(event))
            else:
                admit = ingress.admit
                for event in events:
                    for released in admit(event):
                        extend(dispatch(released))
        finally:
            metrics.on_call(metrics.events_pushed - pushed)
        # Once per batch, not per event: the runners feed their engine in
        # batches from its owner thread, so a dormant query's counters are
        # never staler than one batch for a reader on another thread.
        self._router.settle()
        return emissions

    def run(self, events: Iterable[Event], flush: bool = True) -> list[Emission]:
        """Push a whole stream; optionally flush at the end."""
        emissions = self.push_batch(events)
        if flush:
            emissions.extend(self.flush())
        return emissions

    def advance_time(self, timestamp: float) -> list[Emission]:
        """Heartbeat: declare that stream time has reached ``timestamp``.

        Live deployments call this on a wall-clock timer so quiet streams
        still close time windows, confirm trailing-negation pendings, and
        fire time-periodic emissions.  Has no effect on count-based scopes.
        """
        if self._flushed:
            raise RuntimeError("engine already flushed; create a new engine")
        self._router.settle()  # heartbeat emissions carry the last-seen seq
        self._close_groups()
        pending: list[Delivery] = []
        for pipeline in self._router.queries():
            pending.extend(pipeline.advance_time(timestamp))
        return self._deliver(pending, 0)

    def flush(self) -> list[Emission]:
        """End of stream: release pending matches and held rankings.

        Also propagates the optional ``flush`` lifecycle call to every
        sink, so buffered sinks (JSONL files, network subscribers) are
        write-through at stream end.
        """
        if self._flushed:
            return []
        emissions: list[Emission] = []
        pushed = self.metrics.events_pushed
        for released in [] if self.ingress is None else self.ingress.flush():
            emissions.extend(self._dispatch(released))
        self.metrics.on_call(self.metrics.events_pushed - pushed)
        self._flushed = True
        self._router.settle()
        self._close_groups()
        pending: list[Delivery] = []
        for pipeline in self._router.queries():
            pending.extend(pipeline.flush())
        emissions.extend(self._deliver(pending, None))
        for registered in self._queries.values():
            registered.flush_sinks()
        return emissions

    def close(self) -> list[Emission]:
        """Terminal teardown: flush (if not yet flushed), then close sinks.

        Returns whatever emissions the flush released.  Closing is
        idempotent; after it, sinks that own resources (file handles,
        sockets) have released them.
        """
        if self._closed:
            return []
        emissions = self.flush()
        self._closed = True
        for registered in self._queries.values():
            registered.close_sinks()
        return emissions

    # -- runner lifecycle ------------------------------------------------------------
    # The engine is the ``embedded`` backend of the Runner protocol
    # (repro.runtime.runner): it runs on the caller's thread and delivers
    # every emission to the subscriptions before a call returns, so the
    # lifecycle is a thin layer over push/push_batch/flush.

    @property
    def engine(self) -> "CEPREngine":
        """The engine itself: the perf ledger's layer probes read
        ``runner.engine`` on the embedded backend, as on ``threaded``."""
        return self

    def start(self) -> "CEPREngine":
        """No-op (nothing to spin up); returns self for chaining."""
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Flush (idempotent); ``timeout`` is accepted and unused."""
        self.flush()

    def kill(self) -> None:
        """Crash teardown: drop buffered state, flush and close nothing."""
        self._flushed = self._closed = True

    def __enter__(self) -> "CEPREngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def submit(self, event: Event, timeout: float | None = None) -> None:
        """:meth:`push` one event; subscriptions receive its emissions."""
        self.push(event)

    def submit_all(self, events: Iterable[Event]) -> int:
        """:meth:`push_batch` a stream; returns how many events its ingress
        admitted (not counting YIELD-derived ones, counting held ones).  A
        rejected event raises, with the events before it admitted
        (:func:`~repro.events.time.rejected`)."""
        assert self.ingress is not None, "its runner feeds an engine behind it"
        before = self.ingress.events_admitted
        try:
            self.push_batch(events)
        except (SchemaError, OutOfOrderError) as exc:
            rejected(exc, self.ingress.events_admitted - before)
            raise
        return self.ingress.events_admitted - before

    def sync(self) -> None:
        """No-op: a synchronous engine is always caught up."""

    def poll(self) -> list[Emission]:
        """No-op barrier: emissions are delivered as they happen."""
        return []

    # -- checkpointing ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe snapshot of all mutable engine state.

        Save with :class:`~repro.store.checkpoint.CheckpointStore`; load
        into a **fresh engine constructed the same way** (same options,
        same queries registered under the same names, in any order) with
        :meth:`restore`.  Replaying the event stream from the snapshot's
        position then continues the uninterrupted run exactly (see
        docs/RECOVERY.md).
        """
        self._router.settle()
        state: dict = {
            "sequencer": self._sequencer.snapshot(),
            "derived_events": self.derived_events,
            "flushed": self._flushed,
            "events_pushed": self.metrics.events_pushed,
            "queries": {
                name: registered.snapshot()
                for name, registered in self._queries.items()
            },
            "lateness": None,
        }
        if self.ingress is None:
            return state  # its runner writes the admission sections
        return merge_admission(state, self.ingress.snapshot())

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this freshly constructed engine.

        Every query named in the snapshot must already be registered (the
        compiled automatons and scorers are rebuilt from query text; only
        mutable state travels through the snapshot).  An engine behind a
        runner skips the admission sections, which its runner loads.
        """
        from repro.engine.snapshot import SnapshotFormatError, restoring

        with restoring("engine"):
            snapshot_queries = state["queries"]
            missing = sorted(set(snapshot_queries) - set(self._queries))
            extra = sorted(set(self._queries) - set(snapshot_queries))
            if missing or extra:
                raise SnapshotFormatError(
                    f"query set mismatch: snapshot has "
                    f"{sorted(snapshot_queries)}, engine has {sorted(self._queries)}"
                )
            if self.ingress is not None:
                self.ingress.restore(state)
            # A dormant query may be handed runs in partitions it is not
            # indexed under, or a ranker holding matches: wake everybody,
            # settling first so no debt is added on top of the restored
            # counters.
            self._router.wake_all()
            self._sequencer.restore(state["sequencer"])
            self.derived_events = int(state["derived_events"])
            self._flushed = bool(state["flushed"])
            self.metrics.events_pushed = int(state["events_pushed"])
            self._close_groups()
            self._split_diverged_groups(snapshot_queries)
            for pipeline in self._router.queries():
                widest = pipeline.widest_member()
                pipeline.restore(snapshot_queries[widest.name], widest.name)
            for name, query_state in snapshot_queries.items():
                self._queries[name].restore(query_state)

    def _split_diverged_groups(self, sections: dict) -> None:
        """Members whose sections saw a different number of events do not
        share a history (one registered later in the snapshotted engine):
        each such set of members but the first member's leaves its group for
        one of its own, on a pipeline compiled for it, before the groups are
        restored."""
        from repro.engine.snapshot import restoring

        for pipeline in self._router.queries():
            if len(pipeline.members) == 1:
                continue
            histories: dict[int, list[RegisteredQuery]] = {}
            for member in pipeline.members:
                with restoring(f"query {member.name!r}", outer=True):
                    routed = int(sections[member.name]["metrics"]["events_routed"])
                histories.setdefault(routed, []).append(member)
            if len(histories) == 1:
                continue
            pipeline.members[:] = histories.pop(
                int(sections[pipeline.name]["metrics"]["events_routed"])
            )
            for head, *rest in histories.values():
                split = Pipeline(
                    head, self.registry, self.enable_pruning, self.lenient_errors,
                    shared=self.shared,
                )
                for member in rest:
                    split.admit(member)
                self._route(split)

    def _route(self, pipeline: Pipeline) -> None:
        """Route a new group's pipeline, traced as the engine is."""
        pipeline.set_tracer(self.tracer)
        self._router.add(pipeline)

    # -- observability ---------------------------------------------------------------

    @property
    def events_pushed(self) -> int:
        return self.metrics.events_pushed

    def set_tracing(self, enabled: bool) -> Tracer | None:
        """Attach (``True``) or detach (``False``) span tracing at runtime.

        Attaching keeps an existing tracer (and its history); detaching
        drops it.  Returns the active tracer, if any.
        """
        if enabled:
            if self.tracer is None:
                self.tracer = Tracer()
            self._router.wake_all()  # ROUTE spans are output: nobody is dormant
        else:
            self.tracer = None
        for registered in self._queries.values():
            registered.tracer = self.tracer
        for pipeline in self._router.queries():
            pipeline.set_tracer(self.tracer)
        return self.tracer

    def trace(self, emission: Emission, query: str | None = None) -> EmissionTrace:
        """Full provenance of one emission this engine produced.

        ``query`` names the query it was delivered to; without it, the
        query of the emission's first match (none for an empty ranking).
        Works without tracing enabled (match events and rank keys come from
        the emission itself), but the run-lifecycle competition tallies
        need the span history — enable tracing before the run for those.
        """
        query_name = query
        if query_name is None and emission.ranking:
            query_name = emission.ranking[0].query_name
        registered = (
            self._queries.get(query_name) if query_name is not None else None
        )
        return build_emission_trace(
            emission,
            analyzed=registered.analyzed if registered is not None else None,
            tracer=self.tracer,
            query=query_name,
        )

    def metrics_registry(self) -> MetricsRegistry:
        """The engine's live, typed registry over its hot-path counters.

        The only form in which counters leave the engine: every series is
        a callback-backed view (declared once, in
        :mod:`repro.observability.instruments`) of a counter the hot path
        already maintains, and ``stats_by_query`` and the other telemetry
        views are functions of it.  Owned by the engine: repeated calls
        return the same object after an idempotent registration pass that
        picks up new queries and sinks, and :meth:`unregister_query`
        prunes a dead query's series, so a long-running deployment can
        export it repeatedly without accumulating stale entries.

        Dormant queries' counters are settled first, so a read between
        two events equals what per-event bookkeeping would show; like
        every engine method this belongs to the thread that owns the
        engine (a runner on another thread reads :meth:`_live_registry`).
        """
        self._router.settle()
        return self._live_registry()

    def _live_registry(self) -> MetricsRegistry:
        """The registration pass of :meth:`metrics_registry`, nothing else."""
        if self._registry_view is None:
            self._registry_view = MetricsRegistry()
        instruments.register(self._registry_view, self)
        return self._registry_view

    def _next_auto_name(self) -> str:
        self._auto_name_counter += 1
        candidate = f"q{self._auto_name_counter}"
        while candidate in self._queries:
            self._auto_name_counter += 1
            candidate = f"q{self._auto_name_counter}"
        return candidate
