"""Runtime invariant checks wired into the engine when CEPRSan is on.

:func:`attach_engine_sanitizer` is called from ``CEPREngine.__init__``
*only* when the sanitizer is enabled.  It replaces a handful of bound
methods with instance-attribute wrappers (Python resolves instance
attributes before class attributes, and every internal call site goes
through ``self.<method>``), so a disabled engine carries no new code in
its hot path at all.

Checks, by hook point:

``sequencer.assign``
    **seq-monotonicity** — assigned sequence numbers strictly increase
    (re-baselined across ``restore``).
``engine._dispatch`` / ``advance_time`` / ``flush`` / registration
    **cross-thread-mutation** — see
    :class:`~repro.sanitize.core.ThreadAffinity`.
``Pipeline.process`` / ``advance_time`` / ``flush``
    **ranking-order** — every emitted ranking is sorted by
    ``Match.sort_key`` and respects LIMIT;
    **score-bound** — every emitted score of a pruner-bearing query lies
    inside the interval bound that justified keeping its run (the exact
    soundness property score-bound pruning rests on: an unsound interval
    evaluator prunes runs it should keep, and this catches it at the
    emission that escaped);
``Ranker._step`` of a sliding scope (``EMIT EVERY`` / ranked ``EAGER``)
    **ranking-order** — a shadow list of every live match, expired the way
    the list-and-sort scope did (a prefix of the insertion order, by each
    match's own completion point), agrees with the k-skyband after every
    step: ``ranking()`` is ``sorted(shadow)[:k]``;
every run reader of a guard or the scorer (``Pipeline.readers``)
    **run-reader** — each value read off a run or match equals, type,
    sign and NaN included, what the context evaluator computes over the
    same bindings and candidate, which must not raise;
``matcher._keep_partial`` / ``_skip_completion`` / ``_drop_dominated``
    **score-bound** — for every partial run kept, the compiled shape bound
    is no tighter than ``IntervalEvaluator`` over the same run (and at a
    fixed-optimum shape, which the pruner is not asked about, the pruner
    would keep it); every completion the completing-edge cut skips,
    re-run through the unskipped path (predicates, ``Match``, ``Scorer``
    over the bindings), would have been
    rejected by its epoch's ``EpochTopK``; every run that run dominance
    drops is strictly dominated by k kept runs, its vectors recomputed
    from bindings by the reference aggregate evaluator;
    **matcher-activity-cache** — the O(1) activity caches agree with a
    recount, and no partition is kept without runs or pendings;
    **run-monotonicity** / **dangling-binding** — every live run's
    seq/ts span is ordered and its bindings name only automaton
    variables.
``engine.register_query`` / ``unregister_query``
    **shared-index-coherence** — the shared index's gate refcounts
    equal a recount over the routed pipelines after churn
    (leaks, stale entries and over-eager prunes all trip).
``engine._dispatch`` (and registration)
    **shared-index-coherence** — the router's dormant/awake bookkeeping
    agrees with a recount: every dormant query is registered, untraced,
    its ranker inert, and in the wake list of its own stage-0 gate; every
    type bucket's awake list and dormant count match registration order,
    and its partition index lists each dormant query under exactly the
    partitions its matcher holds runs or pendings in; its threshold index
    covers exactly its gates with dormant owners, and every verdict of
    its latest cuts is re-derived by the per-gate evaluation of the
    gate's first predicate.
``engine.snapshot``
    **snapshot-roundtrip** — ``restore(snapshot())`` followed by a second
    ``snapshot()`` reproduces the first byte-for-byte.
"""

from __future__ import annotations

import copy
import math
from functools import partial
from typing import TYPE_CHECKING

from repro.engine.compiler import compile_edges
from repro.engine.match import Match
from repro.engine.runs import Run
from repro.language.ast_nodes import Aggregate, Direction, WindowKind
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext, VacuousPredicate, evaluate_predicate
from repro.language.intervals import IntervalEvaluator
from repro.language.printer import format_expr
from repro.language.semantics import reader_sites
from repro.ranking.keys import normalise_bound
from repro.sanitize.core import Sanitizer, ThreadAffinity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ranking.emission import Emission
    from repro.runtime.engine import CEPREngine
    from repro.runtime.query import Pipeline, RegisteredQuery

#: an aggregate over a still-empty trailing Kleene variable: its identity,
#: so that extending by elements S gives the aggregate of S.
_IDENTITY = {"count": 0, "len": 0, "max": -math.inf, "min": math.inf}


class InvariantChecker:
    """Per-engine invariant evaluation (stateless beyond seq baseline)."""

    def __init__(self, engine: "CEPREngine", sanitizer: Sanitizer) -> None:
        self.engine = engine
        self.san = sanitizer
        self._last_seq: int | None = None

    # -- sequencing -------------------------------------------------------------

    def check_seq(self, event) -> None:
        """Assigned seqs strictly increase (called right after assign)."""
        last = self._last_seq
        if last is not None and event.seq <= last:
            self.san.trip(
                "seq-monotonicity",
                f"sequencer assigned seq {event.seq} after {last} "
                f"(type={event.event_type!r}, ts={event.timestamp!r})",
                seq=event.seq,
                previous=last,
                ts=event.timestamp,
            )
        self._last_seq = event.seq

    def rebaseline_seq(self) -> None:
        """Forget the seq baseline (restore may rewind the sequencer)."""
        self._last_seq = None

    # -- per-query emission checks ----------------------------------------------

    def check_emissions(
        self, query: "RegisteredQuery", emissions: "list[Emission]"
    ) -> None:
        limit = query.analyzed.limit
        for emission in emissions:
            ranking = emission.ranking
            if limit is not None and len(ranking) > limit:
                self.san.trip(
                    "ranking-order",
                    f"query {query.name!r} emitted {len(ranking)} matches "
                    f"with LIMIT {limit} ({emission.kind.value} emission at "
                    f"seq={emission.at_seq})",
                    query=query.name,
                    seq=emission.at_seq,
                    size=len(ranking),
                    limit=limit,
                )
            if len(ranking) > 1:
                keys = [match.sort_key() for match in ranking]
                if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
                    self.san.trip(
                        "ranking-order",
                        f"query {query.name!r} emitted an unsorted ranking "
                        f"({emission.kind.value} emission at "
                        f"seq={emission.at_seq}): keys={keys!r}",
                        query=query.name,
                        seq=emission.at_seq,
                    )
            if query.pipeline.pruner is not None:
                for match in ranking:
                    self.check_score_bound(query, match)

    def check_sliding(self, query: "Pipeline", shadow: list) -> None:
        """The k-skyband ranks what sorting every live match would.

        ``shadow`` holds ``[match, point]`` for every live match in
        insertion order.
        """
        sliding = query.ranker._sliding
        expected = sorted((match for match, _point in shadow), key=Match.sort_key)
        if sliding.k is not None:
            expected = expected[: sliding.k]
        want = [match.detection_index for match in expected]
        got = [match.detection_index for match in sliding.ranking()]
        if got != want:
            self.san.trip(
                "ranking-order",
                f"query {query.name!r}: the sliding scope ranks detections "
                f"{got!r}, but sorting its {len(shadow)} live matches ranks "
                f"{want!r} — the k-skyband lost or kept a match wrongly",
                query=query.name,
                got=got,
                want=want,
            )

    def check_score_bound(self, query: "RegisteredQuery", match) -> None:
        """An emitted score must lie inside its interval justification.

        The pruner discards a partial run when the optimistic end of
        ``IntervalEvaluator.bound(primary)`` cannot beat the k-th score;
        that is only sound if every completion's actual score lies inside
        the interval computed over its bindings.  Here the completed
        match *is* a completion with no open variables, so the same
        evaluator must bracket the actual primary rank value.
        """
        pruner = query.pipeline.pruner
        assert pruner is not None
        if not match.rank_values:
            return
        actual = match.rank_values[0]
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return  # string-keyed primary: no interval reasoning
        automaton = query.pipeline.automaton
        complete = Run(  # the match as a run past its last stage: nothing open
            automaton, len(automaton.stages), match.bindings, match.first_seq,
            match.last_seq, match.first_ts, match.last_ts,
        )
        view = complete.partial_view(pruner.domain_of, match.last_ts)
        interval = IntervalEvaluator(view).bound(pruner.primary.expr)
        if interval is None:
            return
        lo, hi = interval.lo, interval.hi
        # Relative slack: aggregate scores may be summed in a different
        # association order by scorer vs. interval evaluator.
        slack = 1e-9 * max(
            1.0,
            abs(actual),
            abs(lo) if math.isfinite(lo) else 0.0,
            abs(hi) if math.isfinite(hi) else 0.0,
        )
        if actual < lo - slack or actual > hi + slack:
            self.san.trip(
                "score-bound",
                f"query {query.name!r} emitted primary rank value {actual!r} "
                f"outside its interval justification [{lo!r}, {hi!r}] "
                f"(match detection_index={match.detection_index}): the "
                f"interval evaluator that score-bound pruning trusts is "
                f"unsound for this expression",
                query=query.name,
                actual=actual,
                lo=lo,
                hi=hi,
                detection_index=match.detection_index,
            )

    def check_compiled_bound(
        self, query: "Pipeline", run, latest_ts: float
    ) -> None:
        """The pruner's compiled bound is never tighter than the reference.

        Re-derives the run's optimistic primary key with
        :class:`IntervalEvaluator` over ``Run.partial_view`` and trips when
        the compiled shape bound claims better than that (or claims a
        bound where the reference has none): a tighter bound prunes runs
        the reference would keep.  At a fixed-optimum shape, whose runs the
        matcher keeps unasked, the pruner must keep the run too.
        """
        pruner = query.pruner
        assert pruner is not None
        compiled = pruner._optimistic(run, latest_ts)
        if compiled is None:
            return
        view = run.partial_view(pruner.domain_of, latest_ts)
        interval = IntervalEvaluator(view).bound(pruner.primary.expr)
        direction = pruner.primary.direction
        reference = None
        if interval is not None:
            raw = interval.lo if direction is Direction.ASC else interval.hi
            reference = normalise_bound(raw, direction)
        if reference is None or compiled > reference:
            self.san.trip(
                "score-bound",
                f"query {query.name!r}: the compiled bound of a run at stage "
                f"{run.stage} (kleene_open={run.kleene_open}) claims an "
                f"optimistic key of {compiled!r}, tighter than the interval "
                f"evaluator's {reference!r}: it may prune runs the reference "
                f"keeps",
                query=query.name,
                stage=run.stage,
                compiled=compiled,
                reference=reference,
            )
        if (run.stage, run.kleene_open) in query.matcher.fixed_shapes:
            epoch = pruner._epochs.epoch_of_point(run.first_seq, run.first_ts)
            headroom = pruner._headroom(epoch, run, latest_ts, probe=True)
            if headroom is not None and headroom > 0:
                self.san.trip(
                    "score-bound",
                    f"query {query.name!r}: the pruner would drop a run kept "
                    f"unasked at fixed-optimum shape ({run.stage}, {run.kleene_open})",
                    query=query.name,
                    headroom=headroom,
                )

    def check_reader(self, query, read, expr, evaluator, current, held, event):
        """Read ``expr`` off ``held`` and ``event``, and check the value is
        the context evaluator's over the same bindings (no registers)."""
        value = read(held, event)
        try:
            reference = evaluator(EvalContext(held.bindings, current, event))
        except (EvaluationError, VacuousPredicate) as exc:
            reference = exc
        if type(value) is not type(reference) or (
            value.hex() != reference.hex() if type(value) is float else value != reference
        ):
            self.san.trip(
                "run-reader",
                f"query {query.name!r}: the run reader of {format_expr(expr)} "
                f"read {value!r}, the context evaluator gives {reference!r}",
                query=query.name,
            )
        return value

    def check_skipped_completion(self, query: "Pipeline", run, event) -> None:
        """A skipped completion would not have been retained.

        Re-runs the candidate through the unskipped path — a singleton
        final stage's bind predicates (a trailing Kleene ``run`` took
        ``event`` already), the completion predicates, ``Match``,
        ``Scorer`` over the bindings — without touching any counter, and
        trips when the epoch's buffer would have retained it (or when its
        evaluation raises: the skip hid an error).
        """
        matcher = query.matcher
        stage = matcher.automaton.stages[-1]
        if not stage.is_kleene and run.blocked_by_trip(stage.index):
            return  # a tripped negation guard forbids this completion anyway
        bound = run.close_kleene() if run.kleene_open else run
        try:
            if not stage.is_kleene:
                ctx = bound.context(current_var=stage.variable.name, current_event=event)
                if not all(
                    evaluate_predicate(spec.evaluator, ctx)
                    for spec in stage.bind_predicates
                ):
                    return
                bound = bound.bind_singleton(stage, event)
            ctx = EvalContext(bindings=bound.bindings)
            if not all(
                evaluate_predicate(spec.evaluator, ctx)
                for spec in matcher.automaton.completion_predicates
            ):
                return
            match = bound.to_match(matcher._detection_counter, query.name)
            match.agg_states = None  # the reference reads the bindings
            query.scorer.score(match)
        except EvaluationError as exc:
            self.san.trip(
                "score-bound",
                f"query {query.name!r}: the completing-edge cut skipped a "
                f"completion at seq={event.seq} whose evaluation raises ({exc})",
                query=query.name,
                seq=event.seq,
            )
            return
        ranker = query.ranker
        epoch = ranker._epoch_tracker.epoch_of_point(match.last_seq, match.last_ts)
        buffer = ranker._epoch_buffers.get(epoch)
        # EpochTopK.insert's own test: rejected only when full and not better.
        if buffer is None or not buffer.is_full or not match.sort_key() >= buffer._keys[-1]:
            self.san.trip(
                "score-bound",
                f"query {query.name!r}: the completing-edge cut skipped a "
                f"completion at seq={event.seq} scoring {match.rank_values!r} "
                f"that epoch {epoch}'s top-k would have retained",
                query=query.name,
                seq=event.seq,
                epoch=epoch,
            )

    def check_dominated(self, query: "Pipeline", dropped, kept, event) -> None:
        """Each run dominance dropped is strictly dominated by k kept runs.

        Recomputes every vector from the run's bindings with the reference
        aggregate evaluator — not ``AggregateState`` — and applies the rule
        from the query text, not from the armed closures: no worse in every
        key, strictly better in a ``count`` or singleton key (a ``max`` or
        ``min`` lead can vanish under a shared future element), and under a
        time window born no earlier.
        """
        analyzed = query.analyzed
        final = analyzed.positives[-1].name
        last = len(analyzed.positives) - 1
        keys = analyzed.rank_keys
        assert analyzed.window is not None and analyzed.limit is not None
        by_time = analyzed.window.kind is WindowKind.TIME
        on_final = [
            isinstance(key.expr, Aggregate) and key.expr.var == final for key in keys
        ]
        strict = [
            not (on and key.expr.func in ("max", "min"))  # type: ignore[attr-defined]
            for on, key in zip(on_final, keys)
        ]

        def vector(run) -> list:
            # Numbers only; a NaN compares false, so it neither dominates
            # nor is dominated.
            ctx = EvalContext(bindings=run.bindings)
            values = []
            for on, key in zip(on_final, keys):
                if on and final not in run.bindings:  # awaiting V's first element
                    value = _IDENTITY[key.expr.func]  # type: ignore[attr-defined]
                else:
                    value = key.evaluator(ctx)
                values.append(value if key.direction is Direction.ASC else -value)
            return values

        def dominates(q, p) -> bool:
            (q_vector, q_run), (p_vector, p_run) = q, p
            return (
                all(a <= b for a, b in zip(q_vector, p_vector))
                and any(s and a < b for s, a, b in zip(strict, q_vector, p_vector))
                and (not by_time or q_run.first_ts >= p_run.first_ts)
            )

        rivals = [(vector(run), run) for run in kept if run.stage == last]
        for run in dropped:
            victim = (vector(run), run)
            dominators = sum(1 for rival in rivals if dominates(rival, victim))
            if dominators < analyzed.limit:
                self.san.trip(
                    "score-bound",
                    f"query {query.name!r}: run dominance dropped a run of "
                    f"{final} at seq={event.seq} (keys {victim[0]!r}) that only "
                    f"{dominators} kept run(s) strictly dominate; it needs "
                    f"k={analyzed.limit}",
                    query=query.name,
                    seq=event.seq,
                    dominators=dominators,
                )

    # -- matcher state ------------------------------------------------------------

    def check_matcher(self, query: "Pipeline") -> None:
        matcher = query.matcher
        live = 0
        pendings = 0
        empty = []
        for key, partition in matcher._partitions.items():
            live += len(partition.runs)
            pendings += len(partition.pendings)
            if not (partition.runs or partition.pendings):
                empty.append(key)
        if empty:
            self.san.trip(
                "matcher-activity-cache",
                f"query {query.name!r} keeps {len(empty)} partition(s) with "
                f"neither runs nor pendings (e.g. {empty[0]!r}): memory and "
                f"checkpoints grow with every key ever seen",
                query=query.name,
                empty=len(empty),
            )
        if (
            live != matcher._live_runs_cached
            or pendings != matcher._pendings_cached
        ):
            self.san.trip(
                "matcher-activity-cache",
                f"query {query.name!r}: activity caches "
                f"(live={matcher._live_runs_cached}, "
                f"pendings={matcher._pendings_cached}) disagree with a "
                f"recount (live={live}, pendings={pendings}); "
                f"live_runs, pending_matches and peak_live_runs read them",
                query=query.name,
                cached_live=matcher._live_runs_cached,
                cached_pendings=matcher._pendings_cached,
                live=live,
                pendings=pendings,
            )
        known = query.automaton.var_types.keys()
        for run in matcher.iter_runs():
            if run.first_seq > run.last_seq or run.first_ts > run.last_ts:
                self.san.trip(
                    "run-monotonicity",
                    f"query {query.name!r}: live run spans "
                    f"seq [{run.first_seq}, {run.last_seq}] "
                    f"ts [{run.first_ts}, {run.last_ts}] — runs must extend "
                    f"forward in stream order",
                    query=query.name,
                    first_seq=run.first_seq,
                    last_seq=run.last_seq,
                )
            dangling = [name for name in run.bindings if name not in known]
            if dangling:
                self.san.trip(
                    "dangling-binding",
                    f"query {query.name!r}: live run binds unknown "
                    f"variable(s) {dangling!r} (automaton declares "
                    f"{sorted(known)!r})",
                    query=query.name,
                    dangling=dangling,
                )

    # -- shared execution index ----------------------------------------------------

    def check_shared_index(self) -> None:
        """The index's refcounts against a recount over the routed pipelines."""
        shared = self.engine.shared
        if shared is None:
            return
        held = shared.refcounts()
        recount = shared.claims(self.engine._router.queries())
        if held != recount:
            drift = sorted(
                key[:24] for key in held | recount if held[key] != recount[key]
            )
            self.san.trip(
                "shared-index-coherence",
                f"gate refcounts disagree with a recount over the routed "
                f"pipelines for {len(drift)} key(s) (e.g. {drift[0]!r}…) — "
                f"a refcount leak or an early prune after UNREGISTER churn",
                drift=drift,
            )
        self.check_groups()
        self.check_activation()

    def check_groups(self) -> None:
        """Query groups against the registry: every routed pipeline has
        members, each registered and viewing it; K covers every member's
        ``LIMIT``; and every registered query is a member of one."""
        engine = self.engine

        def trip(message: str, **context) -> None:
            self.san.trip("shared-index-coherence", message, **context)

        grouped = 0
        for pipeline in engine._router.queries():
            members = pipeline.members
            if not members:
                trip(
                    f"a pipeline last named {pipeline.name!r} is routed without "
                    f"members — a group outlived its last member",
                    query=pipeline.name,
                )
            k = pipeline.ranker.limit
            for member in members:
                grouped += 1
                if (
                    engine._queries.get(member.name) is not member
                    or member.pipeline is not pipeline
                ):
                    trip(
                        f"group {pipeline.name!r} lists {member.name!r}, which "
                        f"is not a registered member of it",
                        query=member.name,
                    )
                limit = member.analyzed.limit
                if not (k is None or (limit is not None and k >= limit)):
                    trip(
                        f"group {pipeline.name!r} keeps a top-{k}, less than "
                        f"member {member.name!r}'s LIMIT {limit}",
                        query=member.name,
                        k=k,
                        limit=limit,
                    )
        if grouped != len(engine._queries):
            trip(
                f"{len(engine._queries)} queries are registered but the "
                f"router's groups hold {grouped}",
            )

    def check_activation(self) -> None:
        """The router's dormant/awake bookkeeping against a recount.

        A dormant query is offered only the events of partitions it is
        indexed under and those that open its gate, so everything that
        rests on must hold by construction: it is registered, untraced and
        its ranker inert, it sits in the wake list of its own stage-0
        gate, every type bucket it listens on counts it dormant and does
        not also list it awake, and each bucket's partition index holds
        it under exactly the partitions its matcher holds runs or
        pendings in (recounted from ``_partitions``).  Each bucket's
        threshold index is checked by :meth:`check_thresholds`.
        """
        engine = self.engine
        router = engine._router
        if router.shared is None:
            return
        registered = router.queries()  # the group pipelines, in router order
        dormant = router._dormant

        def trip(message: str, **context) -> None:
            self.san.trip("shared-index-coherence", message, **context)

        for query, dormancy in dormant.items():
            name = query.name
            if query not in registered or not query.members:
                trip(f"dormant query {name!r} is not registered", query=name)
                continue
            if query.tracer is not None or not query.ranker.inert_without_matches():
                trip(
                    f"query {name!r} is dormant but traced or its ranker holds "
                    f"state: events of other partitions are not being offered",
                    query=name,
                )
            gate = dormancy.gate
            if (
                gate.stage.gate_key != query.automaton.stages[0].gate_key
                or dormancy not in gate.dormant
            ):
                trip(
                    f"dormant query {name!r} is not in its stage-0 gate's "
                    f"wake list: no event can open it",
                    query=name,
                )
        for event_type, bucket in router._buckets.items():
            interested = [q for q in registered if event_type in q.relevant_types]
            asleep = [q for q in interested if q in dormant]
            awake = [q for q in interested if q not in dormant]
            if bucket.awake != awake or bucket.dormant != len(asleep):
                trip(
                    f"type bucket {event_type!r} lists "
                    f"{[q.name for q in bucket.awake]!r} awake and counts "
                    f"{bucket.dormant} dormant; registration order says "
                    f"{[q.name for q in awake]!r} and {len(asleep)}",
                    event_type=event_type,
                )
            sleeping_gates = {
                id(dormant[q].gate)
                for q in asleep
                if q.automaton.stages[0].event_type == event_type
            }
            if {id(gate) for gate in bucket.gates} != sleeping_gates:
                trip(
                    f"type bucket {event_type!r} evaluates "
                    f"{len(bucket.gates)} gate(s) per event but "
                    f"{len(sleeping_gates)} have dormant owners",
                    event_type=event_type,
                )
            self.check_thresholds(event_type, bucket, trip)
            indexed = {
                (index.partitioner.attributes, key, dormancy.query.name)
                for index in bucket.indexes
                for key, holders in index.holders.items()
                for dormancy in holders
            }
            held = {
                (q.matcher._partitioner.attributes, key, q.name)
                for q in asleep
                for key, p in q.matcher._partitions.items()
                if p.runs or p.pendings
            }
            if indexed != held:
                missing = sorted(map(repr, held - indexed))
                stale = sorted(map(repr, indexed - held))
                trip(
                    f"type bucket {event_type!r}: the partition index disagrees "
                    f"with a recount of the dormant matchers' partitions "
                    f"(not indexed: {missing}; indexed without state: {stale}) "
                    f"— events of a partition holding runs are not offered",
                    event_type=event_type,
                )
        for gate in router._gates.values():
            key = gate.stage.gate_key
            owners = [q for q in registered if q.automaton.stages[0].gate_key == key]
            if not owners or owners[0] is not gate.leader:
                trip(
                    f"gate on {gate.stage.event_type!r} is led by "
                    f"{gate.leader.name!r}, not its first registered owner "
                    f"— the evaluating consult is charged to the wrong query",
                    leader=gate.leader.name,
                )

    @staticmethod
    def check_thresholds(event_type: str, bucket, trip) -> None:
        """A type bucket's threshold index against its wake lists and the
        per-gate evaluation: it covers exactly the bucket's gates, and each
        cut's latest verdicts — shut from its position on, open before it —
        are what each gate's first predicate says of that event."""
        index = bucket.thresholds
        covered = [] if index is None else [
            gate for cut in index.cuts for gate in cut.gates
        ] + index.rest
        if sorted(map(id, covered)) != sorted(map(id, bucket.gates)):
            trip(
                f"type bucket {event_type!r}: the threshold index covers "
                f"{len(covered)} gate(s) but {len(bucket.gates)} have dormant "
                f"owners — an index not rebuilt after churn answers for gates "
                f"that are gone",
                event_type=event_type,
            )
            return
        for cut in [] if index is None else index.cuts:
            event = cut.event
            if event is None:
                continue
            for rank, gate in enumerate(cut.gates):
                check = gate.stage.gate_predicates[0].event_check
                try:
                    holds = check(event)
                except EvaluationError as exc:
                    holds = exc
                if (rank >= cut.position) != (holds is False):
                    trip(
                        f"type bucket {event_type!r}: the threshold index "
                        f"{'shut' if rank >= cut.position else 'opened'} gate "
                        f"{gate.stage.gate_key!r} for event #{event.seq}, but "
                        f"its first predicate gives {holds!r}",
                        event_type=event_type,
                        seq=event.seq,
                    )


def instrument_pipelines(checker: InvariantChecker, engine: "CEPREngine") -> None:
    """Instrument every routed pipeline not yet instrumented (after
    registration and restore, which build pipelines)."""
    for pipeline in engine._router.queries():
        instrument_pipeline(checker, pipeline)


def check_deliveries(checker: InvariantChecker, deliveries) -> None:
    for member, emission in deliveries:
        checker.check_emissions(member, [emission])


def instrument_pipeline(checker: InvariantChecker, query: "Pipeline") -> None:
    """Wrap one pipeline's entry points with checks; idempotent, per
    pipeline and per matcher (a wider joiner arms a new one)."""
    if "process" not in vars(query):
        _instrument_entry_points(checker, query)
    matcher = query.matcher
    if getattr(matcher, "_sanitized", False):
        return
    matcher._sanitized = True  # type: ignore[attr-defined]

    if query.ranker.mode == "sliding":
        instrument_sliding(checker, query)

    matcher = query.matcher
    audit_readers(checker, query)
    if query.pruner is not None:
        keep_partial = matcher._keep_partial

        def checked_keep_partial(run, event, epoch):
            checker.check_compiled_bound(query, run, event.timestamp)
            return keep_partial(run, event, epoch)

        matcher._keep_partial = checked_keep_partial  # type: ignore[method-assign]
    if matcher._cut_key is not None:
        orig_skip = matcher._skip_completion

        def skip_completion(run, event):
            orig_skip(run, event)
            checker.check_skipped_completion(query, run, event)

        matcher._skip_completion = skip_completion  # type: ignore[method-assign]
    if matcher.dominance is not None:
        orig_drop = matcher._drop_dominated

        def drop_dominated(dropped, kept, event):
            orig_drop(dropped, kept, event)
            checker.check_dominated(query, dropped, kept, event)

        matcher._drop_dominated = drop_dominated  # type: ignore[method-assign]


def audit_readers(checker: InvariantChecker, query: "Pipeline") -> None:
    """Re-derive every value a guard or the scorer reads off a run: wrap
    each run reader, then rebuild the matcher's guards and the scorer's
    reads over the wrapped ones (the cut's reads are re-run by
    :meth:`~InvariantChecker.check_skipped_completion`)."""
    analyzed, readers = query.automaton.analyzed, query.readers
    assert analyzed is not None
    for expr, evaluator, current, _kinds in reader_sites(analyzed):
        read, why = readers[id(expr)]
        if read is not None:
            audit = partial(checker.check_reader, query, read, expr, evaluator, current)
            readers[id(expr)] = (audit, why)
    query.matcher._edges = compile_edges(query.matcher)
    scorer = query.scorer
    if scorer._reads is not None:
        scorer._reads = tuple(
            readers[id(key.expr)][0] or get for key, get in zip(scorer.rank_keys, scorer._reads)
        )


def _instrument_entry_points(checker: InvariantChecker, query: "Pipeline") -> None:
    """Check the matcher after each step and every member emission a step
    hands out."""
    orig_process = query.process
    orig_advance = query.advance_time
    orig_flush = query.flush

    def process(event):
        deliveries = orig_process(event)
        checker.check_matcher(query)
        check_deliveries(checker, deliveries)
        return deliveries

    def advance_time(timestamp):
        deliveries = orig_advance(timestamp)
        checker.check_matcher(query)
        check_deliveries(checker, deliveries)
        return deliveries

    def flush():
        deliveries = orig_flush()
        check_deliveries(checker, deliveries)
        return deliveries

    query.process = process  # type: ignore[method-assign]
    query.advance_time = advance_time  # type: ignore[method-assign]
    query.flush = flush  # type: ignore[method-assign]


def instrument_sliding(checker: InvariantChecker, query: "Pipeline") -> None:
    """Keep a shadow of every live match beside a sliding scope.

    The shadow takes each match the scope accepts and expires the way the
    list-and-sort scope did: the prefix of the insertion order up to the
    first match whose own completion point is still in the window.  A
    restore reseeds it with the restored members, their stamps standing in
    for the completion points (a stamp is when prefix expiry reached them).
    """
    ranker = query.ranker
    window = ranker.window
    by_time = window is not None and window.kind is WindowKind.TIME
    shadow: list[list] = []

    def live(point, now_seq, now_ts) -> bool:
        assert window is not None
        if by_time:
            return now_ts - point <= window.span
        return now_seq - point < int(window.span)

    def watch_expiry() -> None:
        sliding = ranker._sliding
        orig_expire = sliding.expire

        def expire(now_seq, now_ts):
            if window is not None:
                while shadow and not live(shadow[0][1], now_seq, now_ts):
                    del shadow[0]
            return orig_expire(now_seq, now_ts)

        sliding.expire = expire  # type: ignore[method-assign]

    orig_step = ranker._step
    orig_place = ranker._place

    def step(matches, seq, ts, events, final, epoch):
        emissions = orig_step(matches, seq, ts, events, final, epoch)
        checker.check_sliding(query, shadow)
        return emissions

    def place(match):
        orig_place(match)  # a key the scope refused never reaches the shadow
        shadow.append([match, match.last_ts if by_time else match.last_seq])

    orig_restore_scope = ranker._restore_scope

    def restore_scope(state, rescore):
        orig_restore_scope(state, rescore)
        shadow[:] = [[match, stamp] for match, stamp in ranker._sliding.held()]
        watch_expiry()

    watch_expiry()
    ranker._step = step  # type: ignore[method-assign]
    ranker._place = place  # type: ignore[method-assign]
    ranker._restore_scope = restore_scope  # type: ignore[method-assign]


def attach_engine_sanitizer(engine: "CEPREngine") -> InvariantChecker:
    """Install all sanitizer instrumentation on one (enabled) engine.

    Every wrapper is an instance attribute shadowing the class method;
    internal call sites resolve through ``self.<name>`` / instance
    lookups, so the wrappers see every path (including the hoisted
    ``dispatch`` local in ``push_batch`` and recursive YIELD cascades).
    """
    sanitizer = engine.sanitizer
    assert sanitizer is not None
    checker = InvariantChecker(engine, sanitizer)
    affinity = ThreadAffinity(sanitizer, "CEPREngine")
    engine.affinity = affinity

    sequencer = engine._sequencer
    orig_assign = sequencer.assign

    def assign(event):
        orig_assign(event)
        checker.check_seq(event)

    sequencer.assign = assign  # type: ignore[method-assign]

    orig_dispatch = engine._dispatch

    def dispatch(event, depth: int = 0):
        if depth == 0:
            affinity.check("push")
        emissions = orig_dispatch(event, depth)
        if depth == 0:
            checker.check_activation()
        return emissions

    engine._dispatch = dispatch  # type: ignore[method-assign]

    orig_advance = engine.advance_time

    def advance_time(timestamp):
        affinity.check("advance_time")
        return orig_advance(timestamp)

    engine.advance_time = advance_time  # type: ignore[method-assign]

    orig_flush = engine.flush

    def flush():
        affinity.check("flush")
        return orig_flush()

    engine.flush = flush  # type: ignore[method-assign]

    orig_register = engine.register_query

    def register_query(*args, **kwargs):
        affinity.check("register_query")
        registered = orig_register(*args, **kwargs)
        instrument_pipelines(checker, engine)
        checker.check_shared_index()
        return registered

    engine.register_query = register_query  # type: ignore[method-assign]

    orig_unregister = engine.unregister_query

    def unregister_query(name):
        affinity.check("unregister_query")
        orig_unregister(name)
        checker.check_shared_index()

    engine.unregister_query = unregister_query  # type: ignore[method-assign]

    orig_snapshot = engine.snapshot
    orig_restore = engine.restore

    def snapshot():
        state = orig_snapshot()
        # Round-trip self-check: restoring the snapshot we just took and
        # snapshotting again must reproduce it exactly.  restore() gets a
        # deep copy so a codec that mutates its input cannot hide.
        orig_restore(copy.deepcopy(state))
        after = orig_snapshot()
        if after != state:
            drifted = _first_divergence(state, after)
            sanitizer.trip(
                "snapshot-roundtrip",
                f"restore(snapshot()) is not state-equal: first divergence "
                f"at {drifted}",
                path=drifted,
            )
        return state

    engine.snapshot = snapshot  # type: ignore[method-assign]

    def restore(state):
        affinity.check("restore")
        orig_restore(state)
        instrument_pipelines(checker, engine)
        checker.rebaseline_seq()

    engine.restore = restore  # type: ignore[method-assign]

    return checker


def _first_divergence(a, b, path: str = "$") -> str:
    """Human-oriented pointer to the first differing leaf of two snapshots."""
    if type(a) is not type(b):
        return f"{path} (type {type(a).__name__} vs {type(b).__name__})"
    if isinstance(a, dict):
        for key in a.keys() | b.keys():
            if key not in a or key not in b:
                return f"{path}.{key} (missing on one side)"
            if a[key] != b[key]:
                return _first_divergence(a[key], b[key], f"{path}.{key}")
        return f"{path} (dicts compare unequal but share items)"
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for index, (left, right) in enumerate(zip(a, b)):
            if left != right:
                return _first_divergence(left, right, f"{path}[{index}]")
        return f"{path} (sequences compare unequal but share items)"
    return f"{path} ({a!r} vs {b!r})"
