"""The pattern matching operator.

:class:`PatternMatcher` consumes one event at a time and maintains, per
partition, the set of live partial-match :class:`~repro.engine.runs.Run`
objects plus any *pending* matches (complete but guarded by a trailing
negation until their window expires).  Each ``process(event)`` call returns
the matches completed (or confirmed) by that event.

Event selection strategies (``USING`` clause):

* ``STRICT`` — every event of the partition must be consumed by a run or
  the run dies (contiguity is relative to the event types the query
  observes; see DESIGN.md).
* ``SKIP_TILL_NEXT`` — irrelevant events are skipped; a relevant event is
  consumed, branching when a Kleene *take* and a *proceed* are both
  possible.
* ``SKIP_TILL_ANY`` — every relevant event both extends a clone and is
  skipped by the original, enumerating all matching combinations.

Patterns ending in a Kleene variable emit a match for **every prefix** of
the closure that satisfies the predicates (the run stays live and keeps
extending) — the all-runs semantics of SASE+'s NFA^b.

Ranking integration happens at three points.  The optional ``prune_hook``
is called with every *partial* run the matcher is about to keep (newly
created or extended, unless at one of its ``fixed_shapes``); returning
``True`` discards the run — this is where the ranking layer cuts runs
whose score upper bound cannot reach the current top-k (see
:mod:`repro.ranking.pruning`).  And once armed
(:meth:`PatternMatcher.arm_completion_cut`), the *completing edge* is cut:
a run whose completion by the current event would score strictly worse
than the epoch's k-th retained key is left in place without binding,
building or scoring the match (``SKIP_TILL_ANY`` keeps the run either way);
a trailing Kleene stage still takes the element, but does not build the
prefix match.  And where the final stage is a Kleene variable, the run
list itself is cut (:meth:`PatternMatcher.arm_run_dominance`): after each
event a partition keeps only the k-skyband of its trailing-Kleene runs.

Tumbling mode (``tumbling=True``, used by ``EMIT ON WINDOW CLOSE``): the
stream is cut into epochs of the window span and runs are killed at epoch
boundaries, so every match completes within the epoch that ranks it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.engine.aggregates import tracked_attrs_by_var
from repro.engine.compiler import CompiledEdges, compile_edges
from repro.engine.match import Match
from repro.engine.nfa import PatternAutomaton, Stage
from repro.engine.partitioner import Partitioner
from repro.engine.runs import Run, new_run
from repro.engine.windows import EpochTracker
from repro.events.event import Event
from repro.language.ast_nodes import SelectionStrategy, WindowKind
from repro.observability.tracing import SpanKind, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.language.semantics import CutKey, Readers, RunDominance
    from repro.ranking.pruning import BoundProvider
    from repro.runtime.router import SharedExecutionIndex

#: ``prune_hook(run, latest_event, epoch) -> True`` discards the partial
#: run; ``epoch`` is the tumbling epoch the matcher placed ``latest_event``
#: in (``None`` outside tumbling mode).
PruneHook = Callable[[Run, Event, "int | None"], bool]


def dominated(
    vectors: list[tuple[Any, ...]], k: int, strict: int, nan_test: bool
) -> list[int]:
    """The positions in ``vectors`` of those that ``k`` others dominate.

    A vector holds one direction-normalised component per ``RANK BY`` key
    (smaller is better), the ``strict`` ones first.  ``q`` dominates ``p``
    when it is no worse in every component and differs — so is strictly
    better — in a strict one: it has another *head* ``q[:strict]``.
    Lexicographic order is a linear extension of that order, so every
    dominator of a vector sorts before it, and counting dominators among
    the vectors kept so far decides the k-skyband in one sweep (whatever
    dominates a dropped dominator dominates its victims too, so every
    dropped vector has k kept dominators).

    The sweep walks the sorted vectors in head groups, which never
    dominate within themselves.  Every vector of an earlier group is no
    worse in the first component, so ``bisect_right`` over the sorted
    second components of the vectors kept in earlier groups counts the
    dominators of a vector of one or two components exactly, and bounds
    them from above for a wider one, whose componentwise count runs only
    when that bound reaches ``k``.  With ``nan_test``, a vector with a NaN
    component stays out of the sweep: every match its run completes is a
    scoring error, so it is kept and dominates nothing.
    """
    if nan_test:  # NaN != NaN; tuple ``==`` would call a NaN equal to itself
        order = [
            i for i, vector in enumerate(vectors) if all(map(operator.eq, vector, vector))
        ]
    else:
        order = list(range(len(vectors)))
    if len(order) <= k:
        return []
    order.sort(key=vectors.__getitem__)
    width = len(vectors[order[0]])
    at = 1 if width > 1 else 0  # the component bisected: the second, if any
    seconds: list[Any] = []  # sorted: component ``at`` of the kept earlier groups
    band: list[tuple[Any, ...]] = []  # the kept vectors of earlier groups
    group: list[tuple[Any, ...]] = []  # the kept vectors of this group
    head: Any = None  # the group's strict components (one is not a tuple)
    doomed: list[int] = []
    for index in order:
        vector = vectors[index]
        own = vector[0] if strict == 1 else vector[:strict]
        if own != head:  # NaN-free here, so ``!=`` is exact
            head = own
            for kept in group:
                insort(seconds, kept[at])
            band += group
            group = []
        # fewer than k kept in earlier groups: nothing to count yet
        beaten = bisect_right(seconds, vector[at]) if len(seconds) >= k else 0
        if width > 2 and beaten >= k:
            beaten = 0
            for other in band:
                if all(map(operator.le, other, vector)):
                    beaten += 1
                    if beaten == k:
                        break
        if beaten >= k:
            doomed.append(index)
        else:
            group.append(vector)
    return doomed


# Span kinds pre-bound so traced hot paths skip the enum attribute lookup.
_RUN_CREATE = SpanKind.RUN_CREATE
_RUN_EXTEND = SpanKind.RUN_EXTEND
_RUN_KILL = SpanKind.RUN_KILL
_NFA_TRANSITION = SpanKind.NFA_TRANSITION
_MATCH = SpanKind.MATCH


@dataclass
class MatcherStats:
    """Counters exposed for metrics and the pruning experiments."""

    events_processed: int = 0
    events_skipped_no_key: int = 0
    runs_created: int = 0
    runs_extended: int = 0
    runs_pruned: int = 0
    #: (run, event) pairs the completing-edge cut skipped: the completion
    #: would have scored strictly worse than its epoch's k-th retained key.
    completions_skipped: int = 0
    #: trailing-Kleene runs dropped because k runs of their partition beat
    #: them under every future (run dominance).
    runs_dominated: int = 0
    runs_expired: int = 0
    runs_killed_strict: int = 0
    runs_killed_negation: int = 0
    runs_tripped: int = 0
    matches_completed: int = 0
    pending_created: int = 0
    pending_confirmed: int = 0
    pending_killed: int = 0
    evaluation_errors: int = 0
    #: stage-0 gate consultations answered from the shared per-event memo
    #: / that evaluated the gate, charged to this (consulting) query — the
    #: hit/miss split the per-query cost account reports.  One charge per
    #: (event, query, gate), which keeps the totals exact under partition
    #: sharding.
    shared_hits: int = 0
    shared_misses: int = 0
    peak_live_runs: int = 0


@dataclass
class _Pending:
    """A complete match waiting out a trailing-negation guard."""

    match: Match
    run: Run  # retained for negation-predicate evaluation and window checks


@dataclass
class _Partition:
    runs: list[Run] = field(default_factory=list)
    pendings: list[_Pending] = field(default_factory=list)


class PatternMatcher:
    """Evaluates one compiled automaton over a stream (see module docs)."""

    def __init__(
        self,
        automaton: PatternAutomaton,
        prune_hook: PruneHook | None = None,
        tumbling: bool = False,
        query_name: str | None = None,
        lenient_errors: bool = False,
        track_aggregates: bool = True,
        shared: "SharedExecutionIndex | None" = None,
        readers: "Readers | None" = None,
    ) -> None:
        self.automaton = automaton
        #: the total predicates' run readers (:func:`~repro.language.
        #: semantics.run_readers`): they read the aggregate registers, so
        #: aggregates must be tracked.
        self.readers: Readers = readers if readers is not None else {}
        self.prune_hook = prune_hook
        self.query_name = query_name
        #: Engine-level shared index; when set, the stage-0 gate of the
        #: event currently being dispatched is answered from its per-event
        #: memo (one evaluation per distinct gate per event across all
        #: queries), and fingerprinted predicates evaluate on the event
        #: alone.
        self.shared = shared
        #: When true, a predicate that raises ``EvaluationError``
        #: (missing attribute, type mismatch, division by zero on dirty
        #: data) counts as *failed* instead of crashing the engine; see
        #: ``stats.evaluation_errors``.
        self.lenient_errors = lenient_errors
        self.stats = MatcherStats()
        #: Attached by the observability layer when tracing is enabled;
        #: every hot-path record site guards on ``is not None`` so the
        #: disabled cost is one attribute load per site.
        self.tracer: SpanRecorder | None = None
        self.tumbling = tumbling
        if tumbling and automaton.window is None:
            raise ValueError("tumbling evaluation requires a WITHIN window")
        self._epochs = EpochTracker(automaton.window) if tumbling else None
        #: the tumbling epoch :meth:`process` placed its last event in
        #: (``None`` outside tumbling mode, or for an event it ignored): the
        #: ranker takes it from here instead of computing it again.
        self.epoch: int | None = None
        window = automaton.window
        #: expiry bounds, decided once: a count window's span rounded up
        #: (``seq - first_seq >= span`` for an integer difference) or a
        #: time window's span.
        self._count_span = (
            math.ceil(window.span)
            if window is not None and window.kind is WindowKind.COUNT
            else None
        )
        self._time_span = (
            window.span if window is not None and window.kind is WindowKind.TIME else None
        )
        self._partitioner = Partitioner(automaton.partition_by)
        self._partitions: dict[tuple[Any, ...], _Partition] = {}
        # Incremental aggregate maintenance can be disabled for ablation:
        # aggregates are then recomputed from the binding lists on demand
        # (O(n) per evaluation instead of O(1) lookup).
        self._tracked_attrs = (
            tracked_attrs_by_var(automaton.needed_aggregates)
            if track_aggregates
            else {}
        )
        self._detection_counter = 0
        self._relevant_types = frozenset(
            s.event_type for s in automaton.stages
        ) | frozenset(n.element.event_type for n in automaton.negations)
        self._negation_types = frozenset(
            n.element.event_type for n in automaton.negations
        )
        self._trailing_negations = tuple(
            n for n in automaton.negations if n.before_is_end
        )
        self._internal_negations = tuple(
            (i, n) for i, n in enumerate(automaton.negations) if not n.before_is_end
        )
        self._last_stage_index = len(automaton.stages) - 1
        # O(1) activity caches: kept current by every state-changing entry
        # point (CEPRSan's ``matcher-activity-cache`` recounts them).
        self._live_runs_cached = 0
        self._pendings_cached = 0
        #: set by a sharing router while the query is dormant: called with
        #: ``(key, True)`` when a partition starts holding runs or pendings
        #: and ``(key, False)`` when it stops (``_partitions`` holds exactly
        #: the partitions with state, so these are its inserts and deletes).
        self.on_partition: Callable[[tuple[Any, ...], bool], None] | None = None
        #: Fused per-edge closures (:func:`~repro.engine.compiler.
        #: compile_edges`): one call per edge check, not one per predicate.
        self._edges: CompiledEdges = compile_edges(self)
        #: The completing-edge cut (off until :meth:`arm_completion_cut`).
        self._cut_key: CutKey | None = None
        self._cut_kth: BoundProvider | None = None
        self._cut_type = automaton.stages[-1].event_type
        #: a trailing Kleene stage is cut where a take completes a prefix,
        #: against θ as :meth:`_transition` read it for this event
        self._cut_kleene = automaton.stages[-1].is_kleene
        self._theta: Any = None
        before_last = automaton.stages[-2] if len(automaton.stages) > 1 else None
        #: an open Kleene stage right before the final one completes by
        #: proceeding; its runs are skippable when this event cannot also
        #: extend them (the types differ).
        self._cut_proceeds = (
            before_last is not None
            and before_last.is_kleene
            and before_last.event_type != self._cut_type
        )
        #: run dominance on the trailing Kleene stage (off until
        #: :meth:`arm_run_dominance`).
        self.dominance: RunDominance | None = None
        #: shapes whose runs ``prune_hook`` could only keep (see
        #: :attr:`~repro.ranking.pruning.ScoreBoundPruner.fixed_shapes`)
        self.fixed_shapes: frozenset[tuple[int, bool]] = frozenset()

    # -- public API ------------------------------------------------------------

    def arm_completion_cut(self, key: "CutKey", kth: "BoundProvider") -> None:
        """Skip completions that cannot enter their epoch's top k.

        ``key`` is the query's compiled normalised primary (see
        :func:`~repro.language.semantics.completion_cut`, which also
        decides where arming is exact) and ``kth`` the ranker's
        :meth:`~repro.ranking.ranker.Ranker.kth_bound_for_epoch`.  A key
        may read aggregate registers, so aggregates must be tracked.
        """
        assert self.tumbling, "the cut compares against tumbling epochs"
        self._cut_key = key
        self._cut_kth = kth

    def arm_run_dominance(self, dominance: "RunDominance") -> None:
        """Drop trailing-Kleene runs that k others beat under every future.

        ``dominance`` is :func:`~repro.language.semantics.run_dominance`'s
        armed form, which also decides where this is exact.  Its vector
        reads the trailing variable's ``AggregateState``, so aggregates
        must be tracked.
        """
        assert self.tumbling, "a dominator must complete in its victim's epoch"
        self.dominance = dominance

    def widen(self, kth: "BoundProvider", k: int) -> None:
        """Point an armed cut at ``kth`` and armed dominance at ``k``: a
        query group's K grew to ``k`` before this matcher saw an event."""
        if self._cut_key is not None:
            self._cut_kth = kth
        if self.dominance is not None:
            self.dominance = replace(self.dominance, k=k)

    @property
    def live_run_count(self) -> int:
        return sum(len(p.runs) for p in self._partitions.values())

    @property
    def pending_count(self) -> int:
        return sum(len(p.pendings) for p in self._partitions.values())

    def _refresh_activity(self) -> None:
        """Recount both activity caches over every partition.

        For the entry points that touch all partitions (``advance_time``,
        ``restore``); per event, :meth:`_note_activity` keeps the caches
        current from the one partition the event touched.
        """
        live = 0
        pendings = 0
        for partition in self._partitions.values():
            live += len(partition.runs)
            pendings += len(partition.pendings)
        self._live_runs_cached = live
        self._pendings_cached = pendings

    def _note_activity(
        self,
        key: tuple[Any, ...],
        partition: _Partition,
        runs_before: int,
        pendings_before: int,
    ) -> None:
        """Fold one partition's change into the activity caches (O(1)).

        An event only ever touches its own partition, so the caches move
        by that partition's before/after lengths; CEPRSan's
        ``matcher-activity-cache`` check recounts and compares.  A
        partition left without runs or pendings is dropped.
        """
        runs = len(partition.runs)
        pendings = len(partition.pendings)
        live = self._live_runs_cached + runs - runs_before
        self._live_runs_cached = live
        self._pendings_cached += pendings - pendings_before
        if live > self.stats.peak_live_runs:
            self.stats.peak_live_runs = live
        held_before = runs_before or pendings_before
        if not (runs or pendings):
            del self._partitions[key]
            if held_before and self.on_partition is not None:
                self.on_partition(key, False)
        elif not held_before and self.on_partition is not None:
            self.on_partition(key, True)

    def _drop_empty(self) -> None:
        """Drop every partition left without runs or pendings."""
        partitions = self._partitions
        for key in [key for key, p in partitions.items() if not (p.runs or p.pendings)]:
            del partitions[key]
            if self.on_partition is not None:
                self.on_partition(key, False)

    def process(self, event: Event) -> list[Match]:
        """Feed one event; returns the matches it completed (confirmed)."""
        if event.event_type not in self._relevant_types:
            self.epoch = None
            return []
        self.stats.events_processed += 1
        shared = self.shared
        if shared is not None and shared.current_event is event:
            key = shared.partition_key(self._partitioner)
        else:
            key = self._partitioner.key_of(event)
        if key is None:
            self.stats.events_skipped_no_key += 1
            self.epoch = None
            return []
        epochs = self._epochs
        epoch = self.epoch = epochs.epoch_of(event) if epochs is not None else None
        # Held in the table while the event runs (a pending parks itself
        # there), dropped again by _note_activity if it stays empty.
        partition = self._partitions.get(key)
        if partition is None:
            partition = self._partitions[key] = _Partition()
            runs_before = pendings_before = 0
        else:
            runs_before = len(partition.runs)
            pendings_before = len(partition.pendings)

        completed: list[Match] = []
        try:
            self._expire(partition, event, epoch, completed)
            # Transitions run before negation kills so an event that both
            # matches a stage and a negated element can bind in the branches
            # that consume it, while still killing the branches that skip it
            # (its guard interval covers only the latter).
            self._transition(partition, event, key, completed, epoch)
            if event.event_type in self._negation_types:
                self._apply_negations(partition, event)
        finally:  # a strict evaluation error must not leave an empty partition
            self._note_activity(key, partition, runs_before, pendings_before)
        return completed

    def event_touches_state(self, event: Event, key: tuple[Any, ...]) -> bool:
        """Could ``event`` extend, kill, or trip any live run or pending?

        The shedding controller's protection check: ``True`` means the
        event is bound into (or threatens) live partial-match state in its
        partition and must never be shed.  ``False`` means the event could
        at most start a *fresh* stage-0 run — window expiry aside (which
        the partition's next event catches up on), dropping it cannot
        disturb existing runs.
        Every test is conservative: type-level consumption is checked
        without evaluating predicates, so a protected verdict may be a
        false positive but a not-protected verdict is never a false
        negative.
        """
        partition = self._partitions.get(key)
        if partition is None:
            return False
        if event.event_type in self._negation_types:
            # dropping a negated event could resurrect a doomed run/pending
            return True
        if partition.runs and self.automaton.strategy is SelectionStrategy.STRICT:
            # under STRICT an *unconsumed* event kills runs: its absence is
            # just as observable as its presence
            return True
        stages = self.automaton.stages
        etype = event.event_type
        for run in partition.runs:
            stage = stages[run.stage]
            if run.kleene_open:
                if etype == stage.event_type:
                    return True
                next_index = run.stage + 1
                if (
                    next_index < len(stages)
                    and etype == stages[next_index].event_type
                ):
                    return True
            elif etype == stage.event_type:
                return True
        return False

    def advance_time(self, timestamp: float, seq: int) -> list[Match]:
        """Heartbeat: stream time has reached ``timestamp`` with no event.

        Quiet streams must still expire time windows: runs whose time
        window has passed are dropped, and pending matches (trailing
        negation) whose guard window has passed are confirmed — without
        this, a match could stay pending forever on an idle partition.
        Count-based windows are untouched (arrival positions don't advance
        without events).  ``seq`` (the last event's) only stamps the kill
        spans.  Returns confirmed matches.
        """
        window = self.automaton.window
        if window is None or window.kind is not WindowKind.TIME:
            return []
        # A heartbeat is an event of no type: it moves time, binds nothing.
        now = Event("", timestamp)
        now.seq = seq
        confirmed: list[Match] = []
        for partition in self._partitions.values():
            # No epoch cut here: a tumbling run dies at its own window end
            # or at the next event of a later epoch, as it always has.
            self._expire(partition, now, None, confirmed)
        self._drop_empty()
        self._refresh_activity()
        return confirmed

    def flush(self) -> list[Match]:
        """End of stream: confirm every pending match and clear all state.

        At stream end no further negated event can arrive inside any
        pending match's window, so all pendings are confirmed.
        """
        confirmed: list[Match] = []
        for partition in self._partitions.values():
            for pending in partition.pendings:
                self.stats.pending_confirmed += 1
                confirmed.append(pending.match)
            partition.pendings.clear()
            partition.runs.clear()
        self._drop_empty()
        self._live_runs_cached = 0
        self._pendings_cached = 0
        return confirmed

    def iter_runs(self) -> Iterator[Run]:
        for partition in self._partitions.values():
            yield from partition.runs

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot of all mutable state (runs, pendings, stats)."""
        from repro.engine.snapshot import encode_matcher

        return encode_matcher(self)

    def restore(self, state: dict[str, Any]) -> None:
        """Load a :meth:`snapshot` into this (freshly constructed) matcher.

        The matcher must have been built from the same compiled automaton
        the snapshot was taken from; runs are re-attached to it.
        """
        from repro.engine.snapshot import restore_matcher

        restore_matcher(self, state)

    # -- phase 1: expiry ---------------------------------------------------------

    def _expire(
        self,
        partition: _Partition,
        event: Event,
        epoch: int | None,
        completed: list[Match],
    ) -> None:
        """Drop window-dead runs; confirm pendings whose guard expired.

        ``epoch`` is the tumbling epoch the clock is in (``None``: no
        epoch cut); runs and pendings born before it are dead too.  The
        bounds are computed once per event and each run's first point is
        compared inline: a count window keeps runs from
        ``seq - span + 1`` on (and from the epoch's first sequence
        number); a time window kills a run when ``ts - first_ts > span``
        or ``first_ts // span < epoch`` — the comparisons
        :meth:`~repro.engine.runs.Run.window_excludes` and the epoch
        tracker make, so every verdict is theirs.
        """
        runs = partition.runs
        if runs:
            if self.tracer is not None:
                survivors = self._expire_traced(runs, event, epoch)
            elif self._count_span is not None:
                floor = event.seq - self._count_span + 1
                if epoch is not None:
                    assert self._epochs is not None
                    start = epoch * self._epochs.span
                    if start > floor:
                        floor = start
                survivors = [run for run in runs if run.first_seq >= floor]
            elif self._time_span is not None:
                ts = event.timestamp
                span = self._time_span
                if epoch is None:
                    survivors = [run for run in runs if not ts - run.first_ts > span]
                else:
                    assert self._epochs is not None
                    epoch_span = self._epochs.span
                    survivors = [
                        run
                        for run in runs
                        if not (
                            ts - run.first_ts > span
                            or run.first_ts // epoch_span < epoch
                        )
                    ]
            else:
                survivors = runs
            if len(survivors) != len(runs):
                self.stats.runs_expired += len(runs) - len(survivors)
                partition.runs = survivors

        if partition.pendings:
            still_pending: list[_Pending] = []
            for pending in partition.pendings:
                if self._pending_guard_expired(pending, event, epoch):
                    self.stats.pending_confirmed += 1
                    completed.append(pending.match)
                else:
                    still_pending.append(pending)
            partition.pendings = still_pending

    def _expire_traced(
        self, runs: list[Run], event: Event, epoch: int | None
    ) -> list[Run]:
        """:meth:`_expire`'s run sweep with a RUN_KILL span per dead run,
        which names why it died."""
        survivors: list[Run] = []
        tracer = self.tracer
        assert tracer is not None
        for run in runs:
            dead = run.window_excludes(event)
            reason = "expired" if dead else "epoch"
            if not dead and epoch is not None:
                assert self._epochs is not None
                dead = self._epochs.epoch_of_point(run.first_seq, run.first_ts) < epoch
            if dead:
                tracer.record(
                    _RUN_KILL,
                    event.seq,
                    event.timestamp,
                    self.query_name,
                    partition=run.partition_key,
                    reason=reason,
                    stage=run.stage,
                )
            else:
                survivors.append(run)
        return survivors

    def _pending_guard_expired(
        self, pending: _Pending, event: Event, epoch: int | None
    ) -> bool:
        if epoch is not None:
            assert self._epochs is not None
            match = pending.match
            if self._epochs.epoch_of_point(match.first_seq, match.first_ts) < epoch:
                return True
        return pending.run.window_excludes(event)

    # -- phase 2: negations --------------------------------------------------------

    def _apply_negations(self, partition: _Partition, event: Event) -> None:
        """Kill runs/pendings violated by a negated event (of a negated
        type: the caller checks)."""
        # Trailing negations only ever threaten pending matches: their guard
        # opens at completion, which is exactly when a run becomes pending.
        tracer = self.tracer
        if partition.pendings and self._trailing_negations:
            survivors: list[_Pending] = []
            for pending in partition.pendings:
                if pending.match.last_seq == event.seq:
                    # the pending's own completing event is not "after" it
                    survivors.append(pending)
                elif self._pending_violated(pending, event):
                    self.stats.pending_killed += 1
                    if tracer is not None:
                        tracer.record(
                            _RUN_KILL,
                            event.seq,
                            event.timestamp,
                            self.query_name,
                            partition=pending.run.partition_key,
                            reason="negation",
                            pending=True,
                        )
                else:
                    survivors.append(pending)
            partition.pendings = survivors

        if not self._internal_negations:
            return
        new_runs: list[Run] = []
        for run in partition.runs:
            if run.last_seq == event.seq:
                # this run consumed the event as a positive element; it is
                # not "between" that run's bindings.
                new_runs.append(run)
                continue
            outcome = self._check_internal_negations(run, event)
            if outcome is None:
                self.stats.runs_killed_negation += 1
                if tracer is not None:
                    tracer.record(
                        _RUN_KILL,
                        event.seq,
                        event.timestamp,
                        self.query_name,
                        partition=run.partition_key,
                        reason="negation",
                        stage=run.stage,
                    )
                continue
            new_runs.append(outcome)
        partition.runs = new_runs

    def _pending_violated(self, pending: _Pending, event: Event) -> bool:
        return any(
            negation.element.event_type == event.event_type
            and self._edges.negation[id(negation)](pending.run, event)
            for negation in self._trailing_negations
        )

    def _check_internal_negations(self, run: Run, event: Event) -> Run | None:
        """Return the (possibly tripped) run, or ``None`` when killed."""
        for index, negation in self._internal_negations:
            if negation.element.event_type != event.event_type:
                continue
            # Guard opens once positives[after] is bound, closes when
            # positives[before] starts binding.
            after_bound = run.stage > negation.after or (
                run.stage == negation.after and run.kleene_open
            )
            if not after_bound:
                continue
            before_started = run.stage > negation.before or (
                run.stage == negation.before and run.kleene_open
            )
            if before_started:
                continue
            if not self._edges.negation[id(negation)](run, event):
                continue
            # Guard violated.  If the element before the negation is an open
            # Kleene, a later take restarts the guard: trip, don't kill.
            if run.stage == negation.after and run.kleene_open:
                if index not in run.trips:
                    self.stats.runs_tripped += 1
                    run = run.tripped(index)
                continue
            return None
        return run

    # -- phase 3: transitions ---------------------------------------------------------

    def _transition(
        self,
        partition: _Partition,
        event: Event,
        key: tuple[Any, ...],
        completed: list[Match],
        epoch: int | None,
    ) -> None:
        strategy = self.automaton.strategy
        next_runs: list[Run] = []
        tracer = self.tracer
        cut_key = self._cut_key
        theta = None
        if cut_key is not None and event.event_type == self._cut_type:
            assert epoch is not None
            theta = self._cut_theta(epoch)
            if self._cut_kleene:  # a skip here would lose the extension
                self._theta, theta = theta, None
        last = self._last_stage_index
        proceeds = self._cut_proceeds

        for run in partition.runs:
            if theta is not None and (
                run.stage == last
                or (proceeds and run.kleene_open and run.stage == last - 1)
            ):
                assert cut_key is not None
                # Strictly worse: ties stay, and a NaN is completed for the
                # scorer to report.
                if cut_key(run, event) > theta:
                    self._skip_completion(run, event)
                    next_runs.append(run)  # SKIP_TILL_ANY keeps it regardless
                    continue
            options, consumed = self._options_for(run, event, completed)
            if not consumed:
                if strategy is SelectionStrategy.STRICT:
                    self.stats.runs_killed_strict += 1
                    if tracer is not None:
                        tracer.record(
                            _RUN_KILL,
                            event.seq,
                            event.timestamp,
                            self.query_name,
                            partition=run.partition_key,
                            reason="strict",
                            stage=run.stage,
                        )
                else:
                    next_runs.append(run)
                continue
            if strategy is SelectionStrategy.SKIP_TILL_ANY:
                next_runs.append(run)  # the original skips the event
            for new_partial in options:
                if self._keep_partial(new_partial, event, epoch):
                    next_runs.append(new_partial)

        self._create_run(event, key, next_runs, completed, epoch)
        dominance = self.dominance
        # Only a run this event added can make another dominated: the
        # partition held a skyband already, and a run leaving adds no
        # dominator to anyone.
        if (
            dominance is not None
            and len(next_runs) > len(partition.runs)
            and len(next_runs) > dominance.k
        ):
            next_runs = self._dominate(next_runs, event, dominance)
        partition.runs = next_runs

    def _dominate(
        self, runs: list[Run], event: Event, dominance: "RunDominance"
    ) -> list[Run]:
        """``runs`` less every final-stage run that k others dominate
        (:func:`dominated`); the survivors keep their list order."""
        last = self._last_stage_index
        where = [index for index, run in enumerate(runs) if run.stage == last]
        k = dominance.k
        if len(where) <= k:
            return runs
        vector = dominance.vector
        vectors = [vector(runs[index]) for index in where]
        doomed = dominated(vectors, k, dominance.strict, dominance.nan_test)
        if not doomed:
            return runs
        dropped = [where[position] for position in doomed]
        gone = set(dropped)
        kept = [run for index, run in enumerate(runs) if index not in gone]
        self._drop_dominated([runs[index] for index in dropped], kept, event)
        return kept

    def _drop_dominated(
        self, dropped: list[Run], kept: list[Run], event: Event
    ) -> None:
        """Book the runs one dominance sweep dropped (``kept`` stay)."""
        self.stats.runs_dominated += len(dropped)
        tracer = self.tracer
        if tracer is not None:
            for run in dropped:
                tracer.record(
                    _RUN_KILL,
                    event.seq,
                    event.timestamp,
                    self.query_name,
                    partition=run.partition_key,
                    reason="dominated",
                    stage=run.stage,
                )

    def _create_run(
        self,
        event: Event,
        key: tuple[Any, ...],
        next_runs: list[Run],
        completed: list[Match],
        epoch: int | None,
    ) -> None:
        """Start a fresh run if ``event`` can bind stage 0."""
        first = self.automaton.stages[0]
        if event.event_type != first.event_type:
            return
        if not self._accepts_new_run(event):
            return
        run = new_run(self.automaton, event, key, self._tracked_attrs)
        self.stats.runs_created += 1
        if self.tracer is not None:
            self.tracer.record(
                _RUN_CREATE,
                event.seq,
                event.timestamp,
                self.query_name,
                partition=key,
                stage=0,
            )
        if run.is_complete:  # single-element singleton pattern
            self._try_complete(run, completed)
            return
        if run.kleene_open and first.index == self._last_stage_index:
            # Single-element prefix of a pattern that is one Kleene stage.
            self._try_complete(run.close_kleene(), completed)
        if self._keep_partial(run, event, epoch):
            next_runs.append(run)

    def _options_for(
        self, run: Run, event: Event, completed: list[Match]
    ) -> tuple[list[Run], bool]:
        """All legal extensions of ``run`` by ``event``.

        Returns ``(partial_runs, consumed)`` where ``consumed`` is true when
        any transition — including one that completed a match — fired.
        Completions are appended to ``completed`` (or parked as pending)
        here; only still-partial runs are returned.
        """
        stages = self.automaton.stages
        options: list[Run] = []
        consumed = False

        stage = stages[run.stage]

        if run.kleene_open:
            # (a) take: extend the open Kleene variable.
            if event.event_type == stage.event_type and self._edges.kleene[stage.index](
                run, event
            ):
                extended = run.extend_kleene(stage, event)
                self.stats.runs_extended += 1
                if self.tracer is not None:
                    self.tracer.record(
                        _RUN_EXTEND,
                        event.seq,
                        event.timestamp,
                        self.query_name,
                        partition=run.partition_key,
                        stage=run.stage,
                        transition="take",
                    )
                consumed = True
                if run.stage == self._last_stage_index:
                    # Trailing Kleene: every accepted prefix is a candidate
                    # match; the run stays live to keep extending.
                    self._complete_prefix(extended, event, completed)
                options.append(extended)
            # (b) proceed: close the Kleene and bind the next stage.
            next_index = run.stage + 1
            if next_index < len(stages):
                next_stage = stages[next_index]
                if (
                    event.event_type == next_stage.event_type
                    and not run.blocked_by_trip(next_index)
                ):
                    advanced = self._try_bind_stage(
                        run.close_kleene(), next_stage, event
                    )
                    if advanced is not None:
                        consumed = True
                        self._register_partial(
                            advanced, next_stage, event, options, completed
                        )
            return options, consumed

        # Awaiting the current stage's first (or only) event.
        if event.event_type == stage.event_type and not run.blocked_by_trip(
            stage.index
        ):
            bound = self._try_bind_stage(run, stage, event)
            if bound is not None:
                consumed = True
                self._register_partial(bound, stage, event, options, completed)
        return options, consumed

    def _register_partial(
        self,
        run: Run,
        stage: Stage,
        event: Event,
        options: list[Run],
        completed: list[Match],
    ) -> None:
        """Route a freshly extended run to completion and/or the run list."""
        if run.is_complete:
            self._try_complete(run, completed)
            return
        self.stats.runs_extended += 1
        if self.tracer is not None:
            self.tracer.record(
                _RUN_EXTEND,
                event.seq,
                event.timestamp,
                self.query_name,
                partition=run.partition_key,
                stage=stage.index,
                transition="bind",
            )
        if run.kleene_open and stage.index == self._last_stage_index:
            # First element of a trailing Kleene: candidate prefix match.
            self._complete_prefix(run, event, completed)
        options.append(run)

    def _try_bind_stage(self, run: Run, stage: Stage, event: Event) -> Run | None:
        """Bind ``event`` to ``stage`` (singleton bind or Kleene element)."""
        if stage.is_kleene:
            if not self._edges.kleene[stage.index](run, event):
                return None
            bound = run.extend_kleene(stage, event)
        else:
            if not self._edges.bind[stage.index](run, event):
                return None
            bound = run.bind_singleton(stage, event)
        if self.tracer is not None:
            self.tracer.record(
                _NFA_TRANSITION,
                event.seq,
                event.timestamp,
                self.query_name,
                partition=run.partition_key,
                stage=stage.index,
                variable=stage.variable.name,
            )
        return bound

    def _accepts_new_run(self, event: Event) -> bool:
        """Stage-0 predicate check against an empty run context."""
        return self._edges.gate0(event)

    def _try_complete(self, run: Run, completed: list[Match]) -> bool:
        """Check completion predicates; emit the match or park it pending."""
        if not self._edges.completion(run):
            return False
        match = run.to_match(self._detection_counter, self.query_name)
        self._detection_counter += 1
        self.stats.matches_completed += 1
        parked = bool(self._trailing_negations)
        if self.tracer is not None:
            self.tracer.record(
                _MATCH,
                match.last_seq,
                match.last_ts,
                self.query_name,
                partition=run.partition_key,
                detection_index=match.detection_index,
                pending=parked,
            )
        if parked:
            partition = self._partitions.setdefault(run.partition_key, _Partition())
            partition.pendings.append(_Pending(match=match, run=run))
            self.stats.pending_created += 1
            return True
        completed.append(match)
        return True

    def _complete_prefix(self, run: Run, event: Event, completed: list[Match]) -> None:
        """Complete the prefix of ``run``, whose trailing Kleene stage took
        ``event``, unless the cut reads a primary strictly worse than θ."""
        theta = self._theta
        if theta is not None and self._cut_key is not None and self._cut_key(run, event) > theta:
            self._skip_completion(run, event)
        else:
            self._try_complete(run.close_kleene(), completed)

    def _cut_theta(self, epoch: int) -> Any:
        """θ: the epoch's k-th retained primary key, once its buffer is full.

        Within a tumbling epoch θ only improves, and a completion lands in
        the epoch of its completing event, so a candidate strictly worse
        than θ now is rejected by the buffer when it would be inserted.
        """
        assert self._cut_kth is not None
        kth = self._cut_kth(epoch)
        return None if kth is None else kth[0]

    def _skip_completion(self, run: Run, event: Event) -> None:
        """Book one (run, event) pair the completing-edge cut skipped."""
        self.stats.completions_skipped += 1

    def _keep_partial(self, run: Run, event: Event, epoch: int | None) -> bool:
        """Apply the prune hook to a partial run the matcher wants to keep."""
        if self.prune_hook is None:
            return True
        fixed = self.fixed_shapes
        if fixed and (run.stage, run.kleene_open) in fixed:
            return True
        if self.prune_hook(run, event, epoch):
            self.stats.runs_pruned += 1
            if self.tracer is not None:
                self.tracer.record(
                    _RUN_KILL,
                    event.seq,
                    event.timestamp,
                    self.query_name,
                    partition=run.partition_key,
                    reason="pruned",
                    stage=run.stage,
                )
            return False
        return True
