"""A query group's operator chain and the registered queries that view it.

``Pipeline`` wires matcher → scorer → ranker for one query group and fans
its emissions out to the group's members; ``RegisteredQuery`` is one
member — its name, sinks and revision — and the handle the engine returns
from ``register_query``.

Result delivery is wired through the subscription API it inherits from
:class:`~repro.runtime.sinks.SinkOwner`: ``subscribe`` returns a detachable
:class:`~repro.runtime.sinks.Subscription` (cancel it to stop delivery) and
``remove_sink`` detaches any sink.  Sinks with the optional
``flush``/``close`` lifecycle get both propagated from the engine.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.engine.compiler import compile_automaton
from repro.language.analysis import run_analysis
from repro.engine.match import Match
from repro.engine.matcher import PatternMatcher
from repro.engine.runs import new_run
from repro.engine.snapshot import restoring
from repro.events.event import Event
from repro.events.schema import SchemaError, SchemaRegistry
from repro.language.ast_nodes import (
    EmitKind,
    Literal,
    Query,
    iter_subexpressions,
    query_expressions,
)
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext
from repro.language.semantics import (
    AnalyzedQuery,
    Reads,
    completion_cut,
    default_emit,
    run_dominance,
    run_readers,
)
from repro.observability.instruments import cost_accounts, register_query
from repro.observability.profiling import STRIDE, StageProfile
from repro.observability.registry import MetricsRegistry
from repro.observability.tracing import SpanKind, Tracer
from repro.ranking.emission import Emission
from repro.ranking.pruning import ScoreBoundPruner
from repro.ranking.ranker import Ranker
from repro.ranking.score import Scorer
from repro.runtime.metrics import QueryMetrics
from repro.runtime.report import QueryReport
from repro.runtime.sinks import CollectorSink, ResultSink, SinkOwner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.language.analysis.diagnostics import Diagnostic
    from repro.runtime.router import SharedExecutionIndex

_ROUTE = SpanKind.ROUTE
_EMIT = SpanKind.EMIT

#: Shed-probe classifications (see docs/SHEDDING.md).  ``SHED_SAFE`` events
#: are provably output-neutral to drop (inert for this query, or carrying a
#: score-bound certificate); ``SHED_PROTECTED`` events are bound into — or
#: threaten — live partial-match state and must never be dropped;
#: ``SHED_UNCERTIFIED`` events could matter but carry no proof either way,
#: so the adaptive sampler drops them at a recall cost it reports.
SHED_SAFE = "safe"
SHED_PROTECTED = "protected"
SHED_UNCERTIFIED = "uncertified"


def groupable(query: Query) -> bool:
    """Only ``EMIT ON WINDOW CLOSE`` queries group: their top-k is a prefix
    of the top-K under one total order."""
    return default_emit(query).kind is EmitKind.ON_WINDOW_CLOSE


def group_key(query: Query) -> tuple:
    """What a groupable query must share with another to run in its group:
    its AST without ``NAME`` and ``LIMIT`` (syntactic: match bindings are
    keyed by variable name), its literals also by type and ``repr``, since
    ``1 == 1.0 == True`` and ``0.0 == -0.0`` print differently.  Read off
    the AST, before analysis (a member takes its group's)."""
    literals = tuple(
        (type(node.value), repr(node.value))
        for expr in query_expressions(query)
        for node in iter_subexpressions(expr)
        if isinstance(node, Literal)
    )
    return replace(query, name=None, limit=None), literals


def _limit_covers(limit: int | None, other: int | None) -> bool:
    """Whether a top-``limit`` holds the top-``other`` (``None``: all)."""
    return limit is None or (other is not None and limit >= other)


class Pipeline:
    """One query group's operator chain: matcher → scorer → ranker, fanned
    out to its members (docs/SHARED_EXECUTION.md, "Query groups").

    Queries equal but for ``NAME`` and ``LIMIT`` run as one pipeline whose
    ``LIMIT`` is the group's largest, K; each member emits the first k rows
    of every group emission.  A query nobody joined is a group of one.
    The router offers events to pipelines; members are views of one —
    their own name, sinks, revision and emission count — and no member
    owns it: it lives while it has members.
    """

    def __init__(
        self,
        first: "RegisteredQuery",
        registry: SchemaRegistry | None = None,
        enable_pruning: bool = True,
        lenient_errors: bool = False,
        clock=time.perf_counter,
        shared: "SharedExecutionIndex | None" = None,
    ) -> None:
        #: the members, in registration order; the first names the matches.
        self.members: list[RegisteredQuery] = [first]
        first.pipeline = self
        #: the engine's cross-query sharing state (``None`` outside a
        #: shared-execution engine): the matcher consults its per-event
        #: gate memo.
        self.shared = shared
        #: attached/detached by the engine via :meth:`set_tracer`.
        self.tracer: Tracer | None = None
        self._clock = clock
        self._enable_pruning = enable_pruning
        self._lenient_errors = lenient_errors
        #: set by a sharing :class:`~repro.runtime.router.EventRouter` for a
        #: pipeline that may go dormant: called by :meth:`skip_if_inert`
        #: with this pipeline once it has proved itself inert for an event.
        self.on_inert: "Callable[[Pipeline], None] | None" = None
        #: routed events, matches and latency (``emissions``: what the
        #: ranker released, before the fan-out to members).
        self.metrics = QueryMetrics()
        analyzed = first.analyzed
        self.automaton = compile_automaton(analyzed)
        # what the readers, the cut, dominance and the pruner may read
        self._reads = Reads(analyzed, registry)
        self.readers = run_readers(analyzed, self._reads)
        self.scorer = Scorer(analyzed.rank_keys, self.readers)
        #: per-stage (match/rank/emit) wall-time breakdown.
        self.profile = StageProfile()
        self._last_seq = -1
        self._last_ts = 0.0
        self._flushed = False
        self._arm(analyzed)

    @property
    def name(self) -> str:
        """The name the matcher stamps matches with: the first member's."""
        return self.matcher.query_name

    @property
    def relevant_types(self) -> frozenset[str]:
        return self.analyzed.relevant_types

    @property
    def sinks(self) -> list[ResultSink]:
        """A group of one's sinks, its member's: where a driver that runs
        the matcher and ranker itself, as the perf ledger's
        ``StagedEngine`` does, delivers (the fan-out of a group of one
        passes every emission through)."""
        (member,) = self.members
        return member.sinks

    # -- the group ----------------------------------------------------------------

    def _arm(self, analyzed: AnalyzedQuery) -> None:
        """Build the ranker, pruner and matcher over the compiled automaton
        for ``analyzed``'s ``LIMIT`` (the group's K)."""
        #: the analysis the pipeline is armed for: its ``LIMIT`` is K.
        self.analyzed = analyzed
        reads = self._reads
        lenient_errors = self._lenient_errors
        self.ranker = Ranker(analyzed, self.scorer, lenient_errors=lenient_errors)
        # Ranking-aware execution acts at three points, all switched by
        # ``enable_pruning``: the pruner bounds every partial run the
        # matcher keeps against the epoch's k-th retained key θ, the
        # completing-edge cut skips completions strictly worse than θ, and
        # run dominance drops trailing-Kleene runs k others beat under
        # every future (each where ``semantics`` proves it exact).  In a
        # group all three act on θ_K, weaker than every member's θ_k.
        self.pruner: ScoreBoundPruner | None = None
        cut_key = dominance = None
        if not self._enable_pruning:
            self.cut_status = self.dominance_status = "disabled by engine configuration"
        else:
            cut_key, self.cut_status = completion_cut(analyzed, reads)
            dominance, self.dominance_status = run_dominance(analyzed, reads)
            if analyzed.has_epoch_bound:
                self.pruner = ScoreBoundPruner(
                    analyzed, self.automaton, reads, self.ranker.kth_bound_for_epoch
                )
        self.matcher = PatternMatcher(
            self.automaton,
            prune_hook=self.pruner,
            tumbling=analyzed.emit.kind is EmitKind.ON_WINDOW_CLOSE,
            query_name=self.members[0].name,
            lenient_errors=lenient_errors,
            shared=self.shared,
            readers=self.readers,
        )
        if self.pruner is not None:
            self.matcher.fixed_shapes = self.pruner.fixed_shapes
        if cut_key is not None:
            self.matcher.arm_completion_cut(cut_key, self.ranker.kth_bound_for_epoch)
        if dominance is not None:
            self.matcher.arm_run_dominance(dominance)
        self._wire_spans()
        # Hoisted for the per-event skip check — it runs for every routed
        # (pipeline, event) pair, so even an attribute chain is measurable.
        self._stage0 = self.automaton.stages[0]
        self._stage0_type = self._stage0.event_type

    def admit(self, member: "RegisteredQuery") -> None:
        """Add ``member`` to this group, before it has seen an event.

        A wider ``LIMIT`` than the group's K widens the pipeline to it
        (:meth:`_widen`); no ``LIMIT`` at all leaves no k-th key θ to act
        on, so the pipeline is armed again without pruner, cut and
        dominance.  The automaton stays compiled once.
        """
        self.members.append(member)
        member.pipeline = self
        limit = member.analyzed.limit
        if _limit_covers(self.ranker.limit, limit):
            return
        if limit is None:
            self._arm(member.analyzed)
        else:
            self._widen(member.analyzed)

    def _widen(self, analyzed: AnalyzedQuery) -> None:
        """Rebuild what reads K for ``analyzed``'s wider ``LIMIT``: the
        ranker, and the θ and k the pruner, the cut and dominance compare
        against.  The matcher's compiled edges and the pruner's compiled
        score bounds do not depend on K, and nothing has run on them yet.
        """
        self.analyzed = analyzed
        self.ranker = Ranker(analyzed, self.scorer, lenient_errors=self._lenient_errors)
        kth = self.ranker.kth_bound_for_epoch
        if self.pruner is not None:
            self.pruner.bound_provider = kth
        assert analyzed.limit is not None
        self.matcher.widen(kth, analyzed.limit)
        self._wire_spans()

    def remove(self, member: "RegisteredQuery") -> None:
        """Let ``member`` leave the group.  The pipeline and its K stay as
        they are (a top-K holds every smaller top-k); the next member, if
        any, names the matches from now on."""
        self.members.remove(member)
        if self.members:
            self.matcher.query_name = self.members[0].name

    def widest_member(self) -> "RegisteredQuery":
        """The first member whose ``LIMIT`` covers every other member's:
        whose section a restore loads the group from."""
        widest = self.members[0]
        for member in self.members[1:]:
            if not _limit_covers(widest.analyzed.limit, member.analyzed.limit):
                widest = member
        return widest

    # -- wiring -----------------------------------------------------------------

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Attach (or detach, with ``None``) a tracer: the pipeline's spans,
        for every member."""
        self.tracer = tracer
        self._wire_spans()

    def _wire_spans(self) -> None:
        self.matcher.tracer = self.ranker.tracer = None if self.tracer is None else self

    def record(
        self, kind: SpanKind, seq: int, ts: float, query: str | None = None, **detail
    ) -> None:
        """The matcher's and the ranker's span recorder: each span once per
        member, under the member's name, so every member's span history is
        the one it would record running alone."""
        tracer = self.tracer
        assert tracer is not None
        for member in self.members:
            tracer.record(kind, seq, ts, member.name, **detail)

    # -- processing --------------------------------------------------------------

    def skip_if_inert(self, event: Event) -> bool:
        """Shared-execution residual check: elide a provably no-op routed event.

        Returns True — after doing the minimal bookkeeping a full
        :meth:`process` call would have done — only when *every* link of
        the chain is provably inert for ``event``: the ranker would
        neither emit nor change state when observed with zero matches, and
        the matcher would change nothing but counters — the event carries
        no partition key (dropped, as :meth:`process` drops it, before any
        predicate is consulted), or its partition holds no partial run or
        pending match and the event cannot start one there (its type is
        not stage 0's, or the shared stage gate rejects it).  Tracing
        disables the path: spans are part of the observable output.

        The gate consultation charges any lenient evaluation errors to
        this pipeline's matcher stats exactly as a full :meth:`process`
        would, so error accounting stays identical to independent
        execution.

        The elision bookkeeping mirrors every piece of :meth:`process`
        state that later output depends on: the last-seen sequence and
        timestamp feed ``flush`` emissions' ``at_seq``/``at_ts``, and the
        routed/processed counters (plus one zero latency sample — the
        elided pipeline's cost is by construction indistinguishable from
        zero, and a partition skip for a keyless event) keep ``cepr
        stats`` identical to independent execution.

        A skipped pipeline is also *demoted* (:attr:`on_inert`): the
        router stops offering it events outside the partitions where it
        holds state, unless they open its stage-0 gate, and books the same
        bookkeeping in bulk for the events it is not offered.
        """
        if self.tracer is not None:
            return False
        shared = self.shared
        if shared is None or shared.current_event is not event:
            return False
        if not self.ranker.inert_without_matches():
            return False
        matcher = self.matcher
        key = shared.partition_key(matcher._partitioner)
        if key is None:
            matcher.stats.events_skipped_no_key += 1
        elif key in matcher._partitions or (
            event.event_type == self._stage0_type
            and shared.stage_gate(self._stage0, matcher.stats, matcher.lenient_errors)
        ):
            return False
        self.book_skipped(event)
        if self.on_inert is not None:
            self.on_inert(self)
        return True

    def book_skipped(self, last: Event, count: int = 1) -> None:
        """Bookkeeping for ``count`` elided events, ``last`` being the latest.

        Called once per skipped pair by :meth:`skip_if_inert`, and in bulk
        by the router for the events a dormant pipeline was not offered.
        """
        self._last_seq = last.seq
        self._last_ts = last.timestamp
        self.metrics.events_routed += count
        self.matcher.stats.events_processed += count
        self.metrics.latency.record_zeros(count)

    def shed_probe(
        self, event: Event, seq_hint: int | None = None
    ) -> "tuple[str, float | None]":
        """Classify ``event`` for the load-shedding controller.

        Returns ``(classification, headroom)``.  The ladder is strictly
        conservative — every ``SHED_SAFE`` verdict is backed by a proof
        that dropping the event cannot change this group's emissions:

        * type not relevant, or no partition key ⇒ the matcher ignores it;
        * :meth:`~repro.engine.matcher.PatternMatcher.event_touches_state`
          ⇒ ``SHED_PROTECTED`` (bound into / threatening live runs);
        * type differs from stage 0 ⇒ cannot start a run either;
        * single-stage patterns complete instantly on a stage-0 bind, so a
          shed would skip a whole detection ⇒ ``SHED_UNCERTIFIED``;
        * stage-0 predicates reject it ⇒ provably inert;
        * otherwise it would start a run: with a pruner, a **positive**
          :meth:`~repro.ranking.pruning.ScoreBoundPruner.event_headroom`
          over the hypothetical run certifies the shed (no completion can
          crack the current top-k); without one, or without a usable
          bound, the verdict is ``SHED_UNCERTIFIED``.

        ``seq_hint`` stands in for the sequence number on the runner's
        pre-ingest sampling path where ``event.seq`` is still ``-1``.
        The probe may consult the shared stage gate / evaluate stage-0
        predicates, so a kept event pays that work twice under shedding —
        emissions are unaffected, only cost accounting shifts slightly.
        """
        matcher = self.matcher
        if event.event_type not in matcher._relevant_types:
            return SHED_SAFE, None
        key = matcher._partitioner.key_of(event)
        if key is None:
            return SHED_SAFE, None
        if matcher.event_touches_state(event, key):
            return SHED_PROTECTED, None
        if event.event_type != self._stage0_type:
            return SHED_SAFE, None
        if matcher._last_stage_index == 0:
            return SHED_UNCERTIFIED, None
        if not matcher._accepts_new_run(event):
            return SHED_SAFE, None
        pruner = self.pruner
        if pruner is None:
            return SHED_UNCERTIFIED, None
        candidate = new_run(self.automaton, event, key, matcher._tracked_attrs)
        headroom = pruner.event_headroom(candidate, event, seq=seq_hint)
        if headroom is None:
            return SHED_UNCERTIFIED, None
        if headroom > 0:
            return SHED_SAFE, headroom
        return SHED_UNCERTIFIED, headroom

    def process(self, event: Event) -> "list[Delivery]":
        """Feed one (already sequenced) event through the group's pipeline.

        Returns each member's emissions, undelivered: the engine hands
        them to :meth:`RegisteredQuery.deliver` in registration order
        across groups.

        The pipeline is timed per stage — match, rank, emit (the fan-out
        to members) — sparingly (:mod:`~repro.observability.profiling`):
        the match stage of one pair in
        :data:`~repro.observability.profiling.STRIDE`, the pipeline's
        first always, whose whole duration is also the latency sample;
        the rank stage of that pair and of every pair with matches to rank
        or emissions to release; the emit stage of every pair with
        emissions, as a pair without them has no fan-out.  Every pair is
        counted.
        """
        self._last_seq = event.seq
        self._last_ts = event.timestamp
        if self.tracer is not None:
            self.record(_ROUTE, event.seq, event.timestamp)
        matcher = self.matcher
        profile = self.profile
        metrics = self.metrics
        clock = self._clock
        sampled = not profile.match.count % STRIDE
        started = clock() if sampled else 0.0
        matches = matcher.process(event)
        before_rank = clock()
        emissions = self.ranker.observe(event, matches, matcher.epoch)
        after_rank = 0.0
        if matches or emissions:
            after_rank = clock()
            profile.rank.add(after_rank - before_rank)
        elif sampled:
            after_rank = clock()
            profile.rank.sample(after_rank - before_rank)
        else:
            profile.rank.count += 1
        metrics.events_routed += 1
        metrics.matches += len(matches)
        if emissions:
            out = self._fan_out(emissions)
            after_emit = clock()
            profile.emit.add(after_emit - after_rank)
        else:
            out = []
            after_emit = after_rank
            profile.emit.count += 1
        if sampled:
            weight = profile.match.sample(before_rank - started)
            metrics.latency.record(after_emit - started, weight)
        else:
            profile.match.count += 1
            metrics.latency.count += 1
        return out

    def _step(self, matches: list[Match], emissions: list[Emission]) -> "list[Delivery]":
        """Count a heartbeat's or the flush's matches; fan out emissions."""
        self.metrics.matches += len(matches)
        return self._fan_out(emissions) if emissions else []

    def _fan_out(self, emissions: list[Emission]) -> "list[Delivery]":
        """Each member's view of the group's emissions, in member order.

        A member's emission is the first k rows of the group's, stamped
        with its own name and its own revision; the group's own emission
        object passes through when it already is exactly that (always, in
        a group of one).
        """
        self.metrics.emissions += len(emissions)
        out: list[Delivery] = []
        for member in self.members:
            limit = member.analyzed.limit
            name = member.name
            for emission in emissions:
                member.revision += 1
                ranking = emission.ranking
                if limit is not None and len(ranking) > limit:
                    ranking = ranking[:limit]
                elif member.revision == emission.revision and all(
                    match.query_name == name for match in ranking
                ):
                    out.append((member, emission))
                    continue
                out.append(
                    (
                        member,
                        Emission(
                            kind=emission.kind,
                            ranking=[
                                match
                                if match.query_name == name
                                else match.for_query(name)
                                for match in ranking
                            ],
                            at_seq=emission.at_seq,
                            at_ts=emission.at_ts,
                            epoch=emission.epoch,
                            revision=member.revision,
                            entered=emission.entered,
                            exited=emission.exited,
                        ),
                    )
                )
        return out

    def advance_time(self, timestamp: float) -> "list[Delivery]":
        """Heartbeat: expire time windows and release due emissions."""
        confirmed = self.matcher.advance_time(timestamp, self._last_seq)
        emissions = self.ranker.tick(confirmed, self._last_seq, timestamp)
        self._last_ts = max(self._last_ts, timestamp)
        return self._step(confirmed, emissions)

    def flush(self) -> "list[Delivery]":
        """End of stream: confirm pendings, release held rankings."""
        if self._flushed:
            return []
        self._flushed = True
        self.profile.settle()
        final_matches = self.matcher.flush()
        emissions = self.ranker.observe_final(
            final_matches, self._last_seq, self._last_ts
        )
        return self._step(final_matches, emissions)

    # -- checkpointing -------------------------------------------------------------

    def restore(self, state: dict, source: str) -> None:
        """Load the pipeline — runs, held matches, routed events and
        matches — from member ``source``'s section ``state``."""
        with restoring(f"query {source!r}", outer=True):
            self._last_seq = int(state["last_seq"])
            self._last_ts = float(state["last_ts"])
            self._flushed = bool(state["flushed"])
            self.matcher.restore(state["matcher"])
            self.ranker.restore(state["ranker"])
            counters = state["metrics"]
            self.metrics.events_routed = int(counters["events_routed"])
            self.metrics.matches = int(counters["matches"])


class RegisteredQuery(SinkOwner):
    """One live query inside a :class:`~repro.runtime.engine.CEPREngine`:
    a member view of its group's :class:`Pipeline`.

    A member keeps its own name, analysis, sinks, revision, emission
    count, YIELD bookkeeping and tracer; everything the pipeline runs is
    :attr:`pipeline`'s.  ``pipeline`` is the group to join; without one
    the query starts a group of one, built from the other arguments.
    """

    def __init__(
        self,
        name: str,
        analyzed: AnalyzedQuery,
        registry: SchemaRegistry | None = None,
        enable_pruning: bool = True,
        collect_results: bool = True,
        lenient_errors: bool = False,
        clock=time.perf_counter,
        shared: "SharedExecutionIndex | None" = None,
        pipeline: Pipeline | None = None,
    ) -> None:
        self.name = name
        self.analyzed = analyzed
        #: the engine's tracer, for this member's EMIT spans (the
        #: pipeline's own are :meth:`Pipeline.set_tracer`'s).
        self.tracer: Tracer | None = None
        self._registry = registry
        self._lenient_errors = lenient_errors
        #: revisions issued to this member (its emissions' ``revision``).
        self.revision = 0
        #: emissions delivered to this member's sinks.
        self.emissions = 0
        #: engine registration order: member emissions of one step are
        #: delivered in it, across groups.
        self.seat = 0
        self._yielded_ids: set[int] = set()
        #: derived events whose YIELD assignments failed (lenient mode).
        self.yield_errors = 0

        self.sinks: list[ResultSink] = []
        self.collector: CollectorSink | None = None
        if collect_results:
            self.collector = CollectorSink()
            self.sinks.append(self.collector)

        #: the group's pipeline, which joining it sets.
        self.pipeline: Pipeline
        if pipeline is None:
            Pipeline(self, registry, enable_pruning, lenient_errors, clock, shared)
        else:
            pipeline.admit(self)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """The static analyzer's findings on this query, computed on read:
        they never block registration, so registration does not pay for
        them (``cepr run`` and ``cepr lint`` report them)."""
        return run_analysis(self.analyzed, self._registry)

    # Read-only views of the group's pipeline parts.

    @property
    def matcher(self) -> PatternMatcher:
        return self.pipeline.matcher

    @property
    def ranker(self) -> Ranker:
        return self.pipeline.ranker

    @property
    def pruner(self) -> ScoreBoundPruner | None:
        return self.pipeline.pruner

    @property
    def relevant_types(self) -> frozenset[str]:
        return self.analyzed.relevant_types

    # -- delivery ----------------------------------------------------------------

    def deliver(self, emission: Emission) -> None:
        """Hand one of this member's emissions to its sinks.

        Records an EMIT span at the emission's stream point.
        """
        self.emissions += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                _EMIT,
                emission.at_seq,
                emission.at_ts,
                self.name,
                emission_kind=emission.kind.value,
                revision=emission.revision,
                matches=len(emission.ranking),
            )
        for sink in self.sinks:
            sink.accept(emission)

    @property
    def has_yield(self) -> bool:
        return self.analyzed.yield_spec is not None

    def derive_events(self, emissions: list[Emission]) -> list[Event]:
        """Convert each distinct match in ``emissions`` to a derived event.

        A match appearing in several (eager/periodic) revisions derives one
        event only, the first time it is emitted.  The derived event's
        timestamp is the emission point, preserving stream-time monotonicity.

        A derived event of a type the schema registry declares is validated
        like an ingested one, so every event a query reads has passed the
        registry — the completing-edge cut and the schema domains of the
        score bound rely on that.  A violation is a YIELD error.
        """
        spec = self.analyzed.yield_spec
        if spec is None:
            return []
        registry = self._registry
        derived: list[Event] = []
        for emission in emissions:
            for match in emission.ranking:
                if match.detection_index in self._yielded_ids:
                    continue
                self._yielded_ids.add(match.detection_index)
                ctx = EvalContext(bindings=match.bindings)
                payload = {}
                try:
                    for attr, _expr, evaluator in spec.assignments:
                        payload[attr] = evaluator(ctx)
                    event = Event(spec.event_type, emission.at_ts, **payload)
                    if registry is not None:
                        registry.validate(event)
                except (EvaluationError, SchemaError):
                    if not self._lenient_errors:
                        raise
                    self.yield_errors += 1
                    continue
                derived.append(event)
        return derived

    # -- checkpointing -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the whole operator chain's mutable state.

        Covers the matcher (runs, pendings), the ranker (scopes, revision
        counters), and the bookkeeping needed for deterministic resume.
        Collected emission *history* and latency reservoirs are not state —
        they never influence future output — and are excluded.

        A member writes its group's pipeline as if it were its own: the
        matcher's runs (kept under θ_K, a superset of what θ_k keeps), each
        open epoch's first k held matches, its own revision and counters,
        every held match stamped with its own name — so a query with this
        member's text can resume from it alone.
        """
        pipeline = self.pipeline
        matcher = pipeline.matcher.snapshot()
        ranker = pipeline.ranker.snapshot()
        ranker["revision"] = self.revision
        limit = self.analyzed.limit
        name = self.name
        held = [
            pending["match"]
            for partition in matcher["partitions"]
            for pending in partition["pendings"]
        ]
        for epoch in ranker.get("epochs", {}).values():
            if limit is not None:
                del epoch["matches"][limit:]
            held.extend(epoch["matches"])
        for match in held:
            match["query_name"] = name
        return {
            "last_seq": pipeline._last_seq,
            "last_ts": pipeline._last_ts,
            "flushed": pipeline._flushed,
            "yielded_ids": sorted(self._yielded_ids),
            "yield_errors": self.yield_errors,
            "matcher": matcher,
            "ranker": ranker,
            "metrics": {
                "events_routed": pipeline.metrics.events_routed,
                "matches": pipeline.metrics.matches,
                "emissions": self.emissions,
            },
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (freshly registered) query.

        The member's own state: emissions, revision, YIELD bookkeeping.
        The group's pipeline is loaded by :meth:`Pipeline.restore`, from
        the section of the member whose ``LIMIT`` is the group's largest;
        the engine picks that section.
        """
        with restoring(f"query {self.name!r}", outer=True):
            self._yielded_ids = set(state["yielded_ids"])
            self.yield_errors = int(state["yield_errors"])
            self.revision = int(state["ranker"]["revision"])
            self.emissions = int(state["metrics"]["emissions"])

    def report(self) -> QueryReport:
        """This query's :class:`~repro.runtime.report.QueryReport`.

        Merge-control state only (counters travel in the engine's metrics
        registry): the open epochs, and the emissions collected since the
        previous report — handed over and forgotten (the shard protocol's
        delta).
        """
        emissions: list[Emission] = []
        if self.collector is not None:
            emissions = self.collector.emissions
            self.collector.emissions = []
        return QueryReport(emissions, self.pipeline.ranker.open_epochs())

    def explain(self) -> str:
        """Readable evaluation plan: stages, predicate placement, ranking.

        Once the query has processed events, the plan is annotated with
        the observed per-stage time split and the condensed cost account
        (runs, prune ratio, shared hit/miss).
        """
        from repro.engine.explain import explain

        pipeline = self.pipeline
        text = explain(
            pipeline.automaton,
            pruning_enabled=pipeline.pruner is not None,
            cut_status=pipeline.cut_status,
            dominance_status=pipeline.dominance_status,
            dominance=pipeline.matcher.dominance,
            fixed_shapes=pipeline.matcher.fixed_shapes,
            readers=pipeline.readers,
        )
        if pipeline.shared is not None:
            text += f"\n{self._sharing_block()}"
        if pipeline.profile.total_seconds > 0:
            text += f"\nstage profile: {pipeline.profile.describe()}"
        if pipeline.metrics.events_routed:
            registry = MetricsRegistry()
            register_query(registry, self)
            text += f"\ncost: {cost_accounts(registry)[self.name].describe()}"
        return text

    def _sharing_block(self) -> str:
        """One-line sharing summary for :meth:`explain`.

        Reports how many registered pipelines share the query's stage-0
        gate (by gate key, so renamed bindings count), and its group.
        """
        pipeline = self.pipeline
        assert pipeline.shared is not None
        gate_key = pipeline.automaton.stages[0].gate_key
        gate = (
            "stage-0 gate unshareable (unfingerprinted predicate)"
            if gate_key is None
            else f"stage-0 gate shared by {pipeline.shared.refcounts()[gate_key]} pipeline(s)"
        )
        limit = pipeline.ranker.limit
        return (
            f"sharing: {gate}; group of {len(pipeline.members)} with K = "
            f"{'none' if limit is None else limit}, widest member "
            f"{pipeline.widest_member().name!r}"
        )

    # -- results ------------------------------------------------------------------

    def results(self) -> list[Emission]:
        """All collected emissions (requires the default collector sink)."""
        if self.collector is None:
            raise RuntimeError(
                f"query {self.name!r} was registered with collect_results=False"
            )
        return list(self.collector.emissions)

    def matches(self) -> list[Match]:
        if self.collector is None:
            raise RuntimeError(
                f"query {self.name!r} was registered with collect_results=False"
            )
        return self.collector.matches()

    def final_ranking(self) -> list[Match]:
        if self.collector is None:
            raise RuntimeError(
                f"query {self.name!r} was registered with collect_results=False"
            )
        return self.collector.final_ranking()


#: one member's emission, not yet handed to its sinks.
Delivery = tuple[RegisteredQuery, Emission]
