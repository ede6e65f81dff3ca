"""Event routing and shared multi-query execution state.

Two pieces live here (see docs/SHARED_EXECUTION.md):

* :class:`EventRouter` — the type-indexed dispatch table from events to
  queries, so pushing an event touches only interested queries instead of
  broadcasting (the original lever behind the multi-query experiment E8)
  — and, with sharing on, only the *affected* ones: an inert query goes
  dormant and is handed only the events of partitions where it holds
  state, or that open its stage-0 gate.
* :class:`SharedExecutionIndex` — the shared gate memo that turns
  per-event gate cost from O(queries) toward O(distinct gates).  A
  stage-0 gate is identified by what it tests, its
  :attr:`~repro.engine.nfa.Stage.gate_key` (event type plus the
  alpha-invariant fingerprints of its predicates, computed in
  :mod:`repro.language.fingerprint`).  Per event, each distinct gate is
  evaluated at most once and the verdict is fanned out to every
  consulting query through a per-event memo.

  The router keeps the index's per-pipeline gate refcounts in sync with
  registration churn: :meth:`EventRouter.add` claims a pipeline's gate
  key, :meth:`EventRouter.remove` releases it and **fully prunes** keys
  whose last pipeline unregistered, so a serving fleet with
  register/unregister churn never accumulates stale index state.
* :class:`_ThresholdIndex` — each type bucket's dormant gates of the
  shape ``attr <op> number``, by attribute and sorted by threshold: one
  read of the event's value and one ``bisect`` per (partitioner, op)
  answer all of them, and the gates it shuts are booked in bulk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.events.event import Event
from repro.language.ast_nodes import BinaryOp
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext, attr_threshold, evaluate_predicate
from repro.runtime.query import Pipeline, RegisteredQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.matcher import MatcherStats
    from repro.engine.nfa import Stage
    from repro.engine.partitioner import Partitioner


#: a gate's memoized verdict on an event that shuts it without error.
_SHUT: tuple[bool, int, EvaluationError | None] = (False, 0, None)

#: a partition key not read yet for the current event (``None`` is a key:
#: the event has no value for it).
_UNREAD: Any = object()


class SharedExecutionIndex:
    """Stage-0 gate refcounts and the per-event gate memo.

    One instance is owned by each engine's router.  The memo is (re)armed
    by :meth:`begin_event` at the top of the engine's dispatch and
    consulted by the router and the matchers of every routed query, so a
    stage-0 gate is evaluated at most once per event no matter how many
    queries consult it.
    """

    def __init__(self) -> None:
        #: stage-0 gate key -> pipelines whose stage 0 tests it (what
        #: :meth:`claims` counts).
        self._gates: Counter[str] = Counter()
        #: event the memo tables below are valid for (identity-checked).
        self.current_event: Event | None = None
        #: gate verdicts for the current event, by gate key — or by stage
        #: identity for a gate without one, which only its own pipeline
        #: consults.
        self._gate_memo: dict[str | int, tuple[bool, int, EvaluationError | None]] = {}
        #: (gate, stats id) pairs already charged a gate consultation for
        #: the current event — the router, the residual skip check and the
        #: matcher may all consult the same gate for one event, but the
        #: per-query cost account must see exactly one consultation either
        #: way (that invariance keeps the accounts exact under sharding).
        self._gate_charged: set[tuple[str | int, int]] = set()
        #: the current event's partition keys, by partitioning attributes:
        #: the router, the residual checks and the matchers of every query
        #: partitioned alike share one read per event.
        self._keys: dict[tuple[str, ...], tuple[Any, ...] | None] = {}
        #: gate consultations answered from the per-event memo.
        self.predicate_evals_saved = 0
        #: gate predicates evaluated on a memo miss.
        self.predicate_evals_performed = 0
        #: (query, event) pairs elided: skipped by the residual check, or
        #: never offered because the query was dormant.
        self.events_gated = 0
        #: the router's wake lists by gate key: a memo miss first asks the
        #: gate's threshold cut, which may already have shut it for this
        #: event in its leader's name (set by :class:`EventRouter`).
        self.wake_lists: dict[Any, _WakeList] = {}

    # -- introspection ----------------------------------------------------------

    def is_empty(self) -> bool:
        """True when no pipeline holds any refcount (churn test)."""
        return not self._gates

    def refcounts(self) -> Counter[str]:
        """How many registered pipelines test each stage-0 gate key (what
        :meth:`claims` recounts)."""
        return self._gates

    @staticmethod
    def claims(queries: Iterable[Pipeline]) -> Counter[str]:
        """The refcounts ``queries``' pipelines hold: each counts once for
        its stage-0 gate key."""
        return Counter(
            key
            for query in queries
            if (key := query.automaton.stages[0].gate_key) is not None
        )

    # -- registration lifecycle -------------------------------------------------

    def add_query(self, query: Pipeline) -> None:
        """Claim a newly routed pipeline's refcount."""
        self._gates += self.claims([query])

    def remove_query(self, query: Pipeline) -> None:
        """Release a pipeline's refcount; prune a key it held last.

        Without the pruning, a serving fleet with registration churn would
        leak one entry per distinct gate ever registered.
        """
        self._gates -= self.claims([query])

    # -- per-event evaluation ---------------------------------------------------

    def begin_event(self, event: Event) -> None:
        """Arm the per-event memo for ``event`` (engine dispatch calls this)."""
        self.current_event = event
        self._gate_memo.clear()
        self._gate_charged.clear()
        self._keys.clear()

    def partition_key(self, partitioner: "Partitioner") -> tuple[Any, ...] | None:
        """The current event's key under ``partitioner``: read once per
        event for every partitioner over the same attributes."""
        attributes = partitioner.attributes
        key = self._keys.get(attributes, _UNREAD)
        if key is _UNREAD:
            key = self._keys[attributes] = partitioner.key_of(self.current_event)
        return key

    def stage_gate(
        self, stage: "Stage", stats: "MatcherStats", lenient: bool
    ) -> bool:
        """Can the current event bind ``stage`` as a fresh run's first element?

        :meth:`gate_outcome` under the consulting query's error policy: a
        strict query re-raises the gate's evaluation error, a lenient one
        counts it and reads the gate as closed.
        """
        result, errors, error = self.gate_outcome(stage, stats)
        if errors:
            if not lenient:
                assert error is not None
                raise error
            stats.evaluation_errors += errors
        return result

    def gate_outcome(
        self, stage: "Stage", stats: "MatcherStats"
    ) -> tuple[bool, int, EvaluationError | None]:
        """``(verdict, errors, first error)`` of ``stage``'s gate for this event.

        Equivalent to evaluating the stage's gate predicates against an
        empty context, but memoized per gate key: every query whose stage
        0 tests the same thing answers in one dict hit, whatever its
        binding names.  A gate with an unfingerprinted predicate has no
        key and is memoized for its own stage only.

        Per-query charging is deduplicated per event: the router (for a
        gate's first owner), the residual skip check and the matcher may
        all consult the same gate for one event, but who is awake is
        engine-local state — a sharded fleet wakes per shard — so repeated
        consults must count once.  Each (gate, query) pair is charged
        exactly one consultation per event, a shared-index miss if it
        evaluated the gate and a memo hit otherwise, regardless of which
        path asked first; that is what keeps per-query cost accounts
        counter-exact across shard splits.  Only a charged hit counts as a
        saved evaluation, so a query re-reading its own consult saves
        nothing.

        A gate the router's threshold index shut for this event was
        evaluated there, in its leader's name: the memo is filled from the
        index, and the consult charged as if the router had memoized it.
        """
        key = stage.gate_key
        if key is None:
            key = id(stage)
        charge_key = (key, id(stats))
        cached = self._gate_memo.get(key)
        if cached is None:
            gate = self.wake_lists.get(key)
            if gate is not None and gate.shut_by_index(self.current_event):
                self.remember_shut(key, gate.leader.matcher.stats)
                cached = _SHUT
            else:
                cached = self._gate_memo[key] = self._evaluate_gate(stage)
                self._gate_charged.add(charge_key)
                stats.shared_misses += 1
                return cached
        if charge_key not in self._gate_charged:
            self._gate_charged.add(charge_key)
            stats.shared_hits += 1
            self.predicate_evals_saved += 1
        return cached

    def remember_shut(self, key: str, leader: "MatcherStats") -> None:
        """Memoize a gate the threshold index shut for the current event,
        its evaluation charged to ``leader`` (unless memoized already)."""
        if key not in self._gate_memo:
            self._gate_memo[key] = _SHUT
            self._gate_charged.add((key, id(leader)))

    def _evaluate_gate(
        self, stage: "Stage"
    ) -> tuple[bool, int, EvaluationError | None]:
        """Evaluate ``stage``'s gate predicates against the current event,
        in order, to the first that fails or raises: a fingerprinted one
        through its event-level check, any other — one that reads more
        than the event, such as ``duration()`` or ``count(a)`` — against
        an empty evaluation context, as the matcher's stage-0 gate does."""
        event = self.current_event
        assert event is not None
        for spec in stage.gate_predicates:
            self.predicate_evals_performed += 1
            check = spec.event_check
            try:
                if check is not None:
                    holds = check(event)
                else:
                    ctx = EvalContext(
                        bindings={}, current_var=spec.anchor_var, current_event=event
                    )
                    holds = evaluate_predicate(spec.evaluator, ctx)
            except EvaluationError as error:
                return False, 1, error
            if not holds:
                return False, 0, None
        return True, 0, None


class _WakeList:
    """One distinct stage-0 gate (by gate key) and its dormant owners."""

    __slots__ = ("stage", "leader", "dormant", "index", "failed", "shut", "cut", "rank")

    def __init__(self, stage: "Stage", leader: Pipeline) -> None:
        self.stage = stage
        #: first-registered owner: the router evaluates the gate in its
        #: name, so the evaluating consult is charged where independent
        #: registration-order dispatch would charge it.
        self.leader = leader
        #: the dormant owners (all share the leader's partitioner).
        self.dormant: list[_Dormancy] = []
        #: the stage-0 bucket's index for that partitioner, which reads the
        #: key: a keyless event consults the gate for nobody.
        self.index: _PartitionIndex | None = None
        #: events on which the gate was evaluated for dormant owners and
        #: stayed shut — each a memo hit for a non-leader owner's own
        #: consult — and the latest of them the per-gate path shut (the
        #: threshold index books its own in bulk: see :meth:`shut_on`).
        self.failed = 0
        self.shut: Event | None = None
        #: the threshold cut holding this gate, and its place there
        #: (``None`` when the index does not cover it).
        self.cut: _Cut | None = None
        self.rank = 0

    def shut_by_index(self, event: Event | None) -> bool:
        """Did the threshold index shut this gate for ``event``?"""
        cut = self.cut
        return cut is not None and cut.event is event and self.rank >= cut.position

    def shut_on(self, event: Event) -> bool:
        """Did ``event`` shut this gate, by the index or the per-gate path?"""
        return self.shut is event or self.shut_by_index(event)


#: per operator: whether a cut negates thresholds and values, so that the
#: gates a value shuts are always a suffix of its ascending keys, and the
#: bisect that finds where that suffix starts.  ``v > k`` is shut by
#: ``k >= v``, ``v >= k`` by ``k > v``, ``v < k`` by ``-k >= -v`` and
#: ``v <= k`` by ``-k > -v``.
_CUTS: dict[BinaryOp, tuple[bool, Callable[..., int]]] = {
    BinaryOp.GT: (False, bisect_left),
    BinaryOp.GTE: (False, bisect_right),
    BinaryOp.LT: (True, bisect_left),
    BinaryOp.LTE: (True, bisect_right),
}


class _Cut:
    """The gates of one (partitioner, attribute, operator), by threshold.

    Per event, one ``bisect`` of the value into the sorted keys finds
    ``position``: the gates from there on are shut.  Events are counted
    per position (``hits``) and folded into each gate's ``failed`` and
    its leader's misses at :meth:`_ThresholdIndex.fold` — a gate at rank
    r was shut by every event cut at a position <= r.
    """

    __slots__ = (
        "index", "negate", "bisect", "keys", "gates", "hits", "saved",
        "event", "position",
    )

    def __init__(
        self,
        index: "_PartitionIndex",
        op: BinaryOp,
        entries: list[tuple[int | float, _WakeList, int]],
    ) -> None:
        """``entries``: (threshold, gate, the memo hits a shut saves)."""
        self.index = index
        self.negate, self.bisect = _CUTS[op]
        if self.negate:
            entries = [(-bound, gate, weight) for bound, gate, weight in entries]
        entries.sort(key=lambda entry: entry[0])
        self.keys = [key for key, _, _ in entries]
        self.gates = [gate for _, gate, _ in entries]
        self.hits = [0] * (len(entries) + 1)
        #: ``saved[p]``: the memo hits dormant non-leader owners' own
        #: consults would have been, summed over the gates from ``p`` on.
        self.saved = [0] * (len(entries) + 1)
        for rank in range(len(entries) - 1, -1, -1):
            gate = self.gates[rank]
            gate.cut, gate.rank = self, rank
            self.saved[rank] = self.saved[rank + 1] + entries[rank][2]
        #: the latest event cut, and where.
        self.event: Event | None = None
        self.position = 0


class _ThresholdIndex:
    """A type bucket's gates whose first predicate is ``attr <op> number``.

    Derived from the bucket's wake lists and rebuilt whenever they or
    their dormant owners change; never checkpointed.  :meth:`cut` reads
    each indexed attribute of an event once, bisects it into every cut
    and books what the shut gates' per-gate evaluation would have — in
    O(cuts), not O(gates).  Other gates (:attr:`rest`), and every gate
    of an attribute whose value is not a plain number (``bool``,
    ``str``, missing, NaN), take the per-gate path, which raises what it
    always raised.
    """

    __slots__ = ("attributes", "cuts", "rest", "lookups")

    def __init__(self, gates: list[_WakeList], weights: list[int]) -> None:
        # attribute -> (partition index, op) -> the entries of a cut
        grouped: dict[str, dict[tuple[_PartitionIndex, BinaryOp], list]] = {}
        #: gates the index does not cover, in the bucket's order.
        self.rest: list[_WakeList] = []
        for gate, weight in zip(gates, weights):
            gate.cut = None
            shape = attr_threshold(gate.stage.gate_predicates[0].expr)
            if shape is None or shape[2] != shape[2]:  # a NaN bound orders nothing
                self.rest.append(gate)
                continue
            attr, op, bound = shape
            assert gate.index is not None
            slices = grouped.setdefault(attr, {})
            slices.setdefault((gate.index, op), []).append((bound, gate, weight))
        self.attributes: list[tuple[str, list[_Cut]]] = []
        self.cuts: list[_Cut] = []
        for attr, slices in grouped.items():
            cuts = [_Cut(index, op, entries) for (index, op), entries in slices.items()]
            self.attributes.append((attr, cuts))
            self.cuts += cuts
        #: attribute values read (one per indexed attribute per event).
        self.lookups = 0

    def cut(self, event: Event, shared: SharedExecutionIndex) -> bool:
        """Cut every indexed gate the event consults and book those it
        shuts: one hit per cut for :meth:`fold`, one evaluated predicate
        per gate, and the memo hits their dormant non-leader owners are
        saved.  True when each one is shut, so that only :attr:`rest`
        needs the per-gate path."""
        payload = event.payload
        every = True
        for attr, cuts in self.attributes:
            self.lookups += 1
            value = payload.get(attr)
            kind = type(value)
            if (kind is not int and kind is not float) or value != value:
                every = False
                continue
            for cut in cuts:
                if cut.index.key is None:
                    continue  # keyless: nobody consults these gates
                cut.position = position = cut.bisect(
                    cut.keys, -value if cut.negate else value
                )
                cut.event = event
                cut.hits[position] += 1
                shared.predicate_evals_performed += len(cut.gates) - position
                shared.predicate_evals_saved += cut.saved[position]
                if position:
                    every = False
        return every

    def rewind(
        self, raised: _WakeList, gates: list[_WakeList], event: Event,
        shared: SharedExecutionIndex,
    ) -> None:
        """A strict gate error ends the event at ``raised``, as it ended
        the per-gate path: take back what :meth:`cut` booked for ``event``
        and book, one by one, only the gates it shut ahead of ``raised``
        in the bucket (the per-gate path saved nothing either)."""
        for cut in self.cuts:
            if cut.event is event:
                position = cut.position
                cut.hits[position] -= 1
                shared.predicate_evals_performed -= len(cut.gates) - position
                shared.predicate_evals_saved -= cut.saved[position]
        for gate in gates:
            if gate is raised:
                return
            if gate.shut_by_index(event):
                gate.failed += 1
                gate.leader.matcher.stats.shared_misses += 1
                shared.predicate_evals_performed += 1

    def fold(self) -> None:
        """Move the booked hits into each gate's ``failed`` count and its
        leader's shared misses."""
        for cut in self.cuts:
            hits = cut.hits
            if not any(hits):
                continue
            shut = 0
            for rank, gate in enumerate(cut.gates):
                shut += hits[rank]
                if shut:
                    gate.failed += shut
                    gate.leader.matcher.stats.shared_misses += shut
            cut.hits = [0] * len(hits)

    def retire(self, shared: SharedExecutionIndex) -> None:
        """Fold, and memoize the gates cut shut for the current event:
        later consults of it must not find them unanswered."""
        self.fold()
        event = shared.current_event
        for cut in self.cuts:
            if cut.event is event and event is not None:
                for gate in cut.gates[cut.position:]:
                    assert gate.stage.gate_key is not None
                    shared.remember_shut(gate.stage.gate_key, gate.leader.matcher.stats)
            for gate in cut.gates:
                gate.cut = None


class _PartitionIndex:
    """A type bucket's dormant queries of one partitioner, by held partition."""

    __slots__ = ("partitioner", "holders", "members", "keyless", "key")

    def __init__(self, partitioner: "Partitioner") -> None:
        self.partitioner = partitioner
        #: partition key -> the members holding runs or pendings there.
        self.holders: dict[tuple[Any, ...], list[_Dormancy]] = {}
        self.members = 0
        #: events of the bucket's type without this partitioner's key.
        self.keyless = 0
        #: the current event's key, read once for every member and gate.
        self.key: tuple[Any, ...] | None = None

    def admit(self, key: tuple[Any, ...], dormancy: "_Dormancy") -> None:
        self.holders.setdefault(key, []).append(dormancy)

    def release(self, key: tuple[Any, ...], dormancy: "_Dormancy") -> None:
        holders = self.holders[key]
        holders.remove(dormancy)
        if not holders:
            del self.holders[key]


class _TypeBucket:
    """Who must see an event of one type."""

    __slots__ = (
        "awake", "indexes", "gates", "thresholds", "dormant", "events", "last_event",
    )

    def __init__(self) -> None:
        #: registration order; replaced, never mutated in place, because a
        #: dispatch loop may be iterating the list :meth:`route` returned.
        self.awake: list[Pipeline] = []
        #: the dormant queries interested in this type, one index per
        #: distinct partitioner.
        self.indexes: list[_PartitionIndex] = []
        #: wake lists with dormant owners whose stage 0 binds this type, in
        #: leader registration order.
        self.gates: list[_WakeList] = []
        #: the threshold index over :attr:`gates` (derived state).
        self.thresholds: _ThresholdIndex | None = None
        #: dormant queries interested in this type.
        self.dormant = 0
        #: events of this type routed past dormant queries, and the latest
        #: of them: what a dormant query is settled from.
        self.events = 0
        self.last_event: Event | None = None

    def index_for(self, partitioner: "Partitioner") -> _PartitionIndex:
        for index in self.indexes:
            if index.partitioner.attributes == partitioner.attributes:
                return index
        index = _PartitionIndex(partitioner)
        self.indexes = self.indexes + [index]
        return index


class _Dormancy:
    """One dormant query, and what it had seen of its buckets' events.

    ``events_seen`` counts the events it was offered, too, so the
    difference to its buckets' counts is exactly what it was not.
    """

    __slots__ = (
        "query", "gate", "buckets", "indexes",
        "events_seen", "keyless_seen", "failed_seen",
    )

    def __init__(self, query: Pipeline, gate: _WakeList) -> None:
        self.query = query
        self.gate = gate
        #: the buckets of its relevant types and its index in each.
        self.buckets: list[_TypeBucket] = []
        self.indexes: list[_PartitionIndex] = []
        self.events_seen = self.keyless_seen = 0
        self.failed_seen = gate.failed

    def on_partition(self, key: tuple[Any, ...], held: bool) -> None:
        """The matcher's ``on_partition``: keep every index current."""
        for index in self.indexes:
            if held:
                index.admit(key, self)
            else:
                index.release(key, self)


class EventRouter:
    """Type-indexed dispatch table from events to the queries they concern.

    What it routes is a query group's :class:`~repro.runtime.query.Pipeline`
    — "a query" here — which fans its emissions out to the group's members;
    the engine drops a pipeline when its last member leaves.

    When constructed with a :class:`SharedExecutionIndex` (the default
    inside :class:`~repro.runtime.engine.CEPREngine`), the router keeps the
    index's refcounts in sync with registration, and
    :meth:`route` is push-based: a query whose ranker is inert goes
    dormant and is offered only the events of partitions where its matcher
    holds runs or pendings, and those that open its stage-0 gate
    (docs/SHARED_EXECUTION.md, "Dormant and awake").  What the per-pair
    skip would have booked for the others — routed/processed counts, zero
    latency samples, partition skips, memo hits, the last seen event — is
    owed instead and paid by :meth:`settle`.  Without an index nobody is
    dormant and :meth:`route` is the plain type bucket.

    Every transition is driven from the per-event entry points: the skip
    check demotes (``Pipeline.on_inert``), the matcher reports a
    partition gaining or losing state (``PatternMatcher.on_partition``),
    and the ranker reports a step that left it holding matches
    (``Ranker.on_busy``), which wakes the query for every event.
    """

    def __init__(self, shared: SharedExecutionIndex | None = None) -> None:
        self._buckets: dict[str, _TypeBucket] = {}
        self._queries: list[Pipeline] = []
        self.shared = shared
        #: registration order, the order :meth:`route` offers queries in.
        self._rank: dict[Pipeline, int] = {}
        self._registered = 0
        #: wake list per stage-0 gate key whose owners may go dormant.
        self._gates: dict[str, _WakeList] = {}
        self._dormant: dict[Pipeline, _Dormancy] = {}
        #: True while some dormant query may be owed counts.
        self._unsettled = False
        if shared is not None:
            shared.wake_lists = self._gates

    def add(self, query: Pipeline | RegisteredQuery) -> None:
        """Route a pipeline; a registered query stands for its own (the
        perf ledger's ``StagedEngine`` adds those)."""
        if isinstance(query, RegisteredQuery):
            query = query.pipeline
        self._queries.append(query)
        self._rank[query] = self._registered
        self._registered += 1
        for event_type in query.relevant_types:
            bucket = self._buckets.get(event_type)
            if bucket is None:
                bucket = self._buckets[event_type] = _TypeBucket()
            bucket.awake = bucket.awake + [query]
        if self.shared is not None:
            self.shared.add_query(query)
            self._enlist(query)

    def _enlist(self, query: Pipeline) -> None:
        """Let ``query`` go dormant if the router can stand in for its gate
        consult.

        The router evaluates a dormant owner's gate ahead of every awake
        query and charges the gate's first-registered owner, its leader:
        the query registration-order dispatch charges the evaluating
        consult.  So a gate sleeps only for owners keyed like its leader,
        since an owner that drops the event for want of a key consults
        nothing.  Two gates never sleep: an unconditional one opens on
        every stage-0 event (its owners would only churn), and one with an
        unfingerprinted predicate has no gate key to share.
        """
        stage = query.automaton.stages[0]
        key = stage.gate_key
        if key is None or not stage.gate_predicates:
            return
        gate = self._gates.get(key)
        if gate is None:
            gate = self._gates[key] = _WakeList(stage, query)
        elif (
            gate.leader.matcher._partitioner.attributes
            != query.matcher._partitioner.attributes
        ):
            return
        query.on_inert = self._sleep

    def remove(self, query: Pipeline) -> None:
        # Churn is rare: wake everybody instead of re-deriving, dormant, who
        # leads which gate and what each dormant query owes the old leader.
        self.wake_all()
        self._queries.remove(query)
        del self._rank[query]
        query.on_inert = None
        for event_type in query.relevant_types:
            bucket = self._buckets.get(event_type)
            if bucket is not None and query in bucket.awake:
                bucket.awake = [q for q in bucket.awake if q is not query]
                if not bucket.awake:
                    del self._buckets[event_type]
        if self.shared is not None:
            self.shared.remove_query(query)
            self._reenlist()

    def _reenlist(self) -> None:
        """Re-derive who leads which gate, and who may go dormant."""
        self._gates.clear()
        for remaining in self._queries:
            remaining.on_inert = None
            self._enlist(remaining)

    def route(self, event: Event) -> list[Pipeline]:
        """Queries that must process ``event``, in registration order.

        Every awake query interested in the type, plus the dormant ones
        holding state in the event's partition or whose stage-0 gate it
        opens — O(awake + holders + distinct gates), however many queries
        are registered.  A bucket without dormant queries costs one
        lookup.  Gates are evaluated through the shared per-event memo, so
        ``begin_event(event)`` must have armed it.
        """
        bucket = self._buckets.get(event.event_type)
        if bucket is None:
            return []
        if bucket.dormant:
            return self._offer(bucket, event)
        return bucket.awake

    def _offer(self, bucket: _TypeBucket, event: Event) -> list[Pipeline]:
        """The awake queries plus the dormant ones ``event`` concerns.

        Each partitioner's key is read once; a keyless event is dropped
        for all its dormant queries before any gate is consulted, as each
        would drop it.  Then each gate with dormant owners is evaluated
        once, in its leader's name.
        """
        shared = self.shared
        assert shared is not None and shared.current_event is event, (
            "route(event) reads the shared memo: begin_event(event) comes first"
        )
        bucket.events += 1
        bucket.last_event = event
        self._unsettled = True
        offered: list[_Dormancy] = []
        for index in bucket.indexes:
            key = index.key = shared.partition_key(index.partitioner)
            if key is None:
                index.keyless += 1
                continue
            holders = index.holders.get(key)
            if holders:
                offered += holders
        held = len(offered)
        gates = bucket.gates
        thresholds = bucket.thresholds
        if thresholds is not None and thresholds.cut(event, shared):
            gates = thresholds.rest  # the index shut every gate it covers
        saved = 0
        for gate in gates:
            assert gate.index is not None
            if gate.index.key is None or gate.shut_by_index(event):
                continue
            leader = gate.leader
            passed, errors, error = shared.gate_outcome(gate.stage, leader.matcher.stats)
            if passed:
                gate.shut = None
                offered += gate.dormant
                continue
            gate.shut = event
            gate.failed += 1
            leads_dormant = leader in self._dormant
            # The memo hits the dormant owners' own consults would have been.
            saved += len(gate.dormant) - leads_dormant
            if errors:
                # Every owner is charged a gate's evaluation error.  Awake
                # owners and dormant holders book their own when their
                # matcher consults the memo; the rest (rare path) here.
                if not leader.matcher.lenient_errors:
                    assert error is not None
                    if thresholds is not None:
                        thresholds.rewind(gate, bucket.gates, event, shared)
                    raise error
                holders = offered[:held]
                for dormancy in gate.dormant:
                    if dormancy not in holders:
                        dormancy.query.matcher.stats.evaluation_errors += errors
        if not offered:
            shared.events_gated += bucket.dormant
            shared.predicate_evals_saved += saved
            return bucket.awake
        if held and len(offered) > held:  # a holder whose gate opened
            offered = list(dict.fromkeys(offered))
        queries = list(bucket.awake)
        for position, dormancy in enumerate(offered):
            # Offered: it books this event itself, and a holder whose gate
            # stayed shut consults it itself.
            dormancy.events_seen += 1
            gate = dormancy.gate
            if (
                position < held
                and dormancy.query is not gate.leader
                and gate.shut_on(event)
            ):
                dormancy.failed_seen += 1
                saved -= 1
            queries.append(dormancy.query)
        shared.events_gated += bucket.dormant - len(offered)
        shared.predicate_evals_saved += saved
        if len(queries) > 1:
            queries.sort(key=self._rank.__getitem__)
        return queries

    def _sleep(self, query: Pipeline) -> None:
        """Demote ``query`` (``Pipeline.on_inert``): it just proved
        itself inert and booked the current event itself.

        From now on it is offered only the events of partitions where its
        matcher holds state — indexed here, then kept current by the
        matcher's ``on_partition`` — and those that open its gate, until
        its ranker starts holding matches (``on_busy``).
        """
        gate = self._gates[query.automaton.stages[0].gate_key]
        gate_bucket = self._buckets[gate.stage.event_type]
        if gate_bucket.thresholds is not None:
            gate_bucket.thresholds.fold()  # the new dormancy starts from ``failed``
        dormancy = _Dormancy(query, gate)
        matcher = query.matcher
        held = list(matcher._partitions)
        for event_type in query.relevant_types:
            bucket = self._buckets[event_type]
            bucket.awake = [q for q in bucket.awake if q is not query]
            bucket.dormant += 1
            index = bucket.index_for(matcher._partitioner)
            index.members += 1
            for key in held:
                index.admit(key, dormancy)
            dormancy.buckets.append(bucket)
            dormancy.indexes.append(index)
            dormancy.events_seen += bucket.events
            dormancy.keyless_seen += index.keyless
        if not gate.dormant:
            gate.index = gate_bucket.index_for(matcher._partitioner)
            gate_bucket.gates = sorted(
                gate_bucket.gates + [gate], key=lambda g: self._rank[g.leader]
            )
        gate.dormant.append(dormancy)
        matcher.on_partition = dormancy.on_partition
        query.ranker.on_busy = partial(self._wake, query)
        self._dormant[query] = dormancy
        self._reindex(gate_bucket)

    def _wake(self, query: Pipeline) -> None:
        """Settle ``query`` and offer it every event again."""
        dormancy = self._dormant.pop(query)
        gate = dormancy.gate
        gate_bucket = self._buckets[gate.stage.event_type]
        if gate_bucket.thresholds is not None:
            gate_bucket.thresholds.fold()
        self._settle(dormancy)
        matcher = query.matcher
        matcher.on_partition = None
        query.ranker.on_busy = None
        held = list(matcher._partitions)
        rank = self._rank.__getitem__
        for bucket, index in zip(dormancy.buckets, dormancy.indexes):
            bucket.dormant -= 1
            bucket.awake = sorted(bucket.awake + [query], key=rank)
            for key in held:
                index.release(key, dormancy)
            index.members -= 1
            if not index.members:
                bucket.indexes = [i for i in bucket.indexes if i is not index]
        gate.dormant.remove(dormancy)
        if not gate.dormant:
            gate_bucket.gates = [g for g in gate_bucket.gates if g is not gate]
        self._reindex(gate_bucket)

    def _reindex(self, bucket: _TypeBucket) -> None:
        """Rebuild ``bucket``'s threshold index after its wake lists or
        their dormant owners changed (what each shut gate saves)."""
        shared = self.shared
        assert shared is not None
        if bucket.thresholds is not None:
            bucket.thresholds.retire(shared)
        dormant = self._dormant
        bucket.thresholds = (
            _ThresholdIndex(
                bucket.gates,
                [len(g.dormant) - (g.leader in dormant) for g in bucket.gates],
            )
            if bucket.gates
            else None
        )

    def wake_all(self) -> None:
        """Settle every dormant query and offer it every event again.

        For operations that change what a query's dormancy rests on
        (restore, tracing on, registration churn); the inert ones go
        dormant again at their next residual skip check.
        """
        for query in list(self._dormant):
            self._wake(query)
        for bucket in self._buckets.values():
            bucket.last_event = None  # a restore may rewind the stream

    def settle(self) -> None:
        """Pay every dormant query what it is owed; they stay dormant.

        Call (on the engine's thread) before anything reads or replaces
        per-query counters or the last-seen event: exports, snapshots,
        heartbeats, end of stream.
        """
        if self._unsettled:
            self._unsettled = False
            for bucket in self._buckets.values():
                if bucket.thresholds is not None:
                    bucket.thresholds.fold()
            for dormancy in self._dormant.values():
                self._settle(dormancy)

    def _settle(self, dormancy: _Dormancy) -> None:
        """Book what the per-pair skip would have for the events not offered."""
        query = dormancy.query
        events = 0
        last: Event | None = None
        for bucket in dormancy.buckets:
            events += bucket.events
            latest = bucket.last_event
            if latest is not None and (last is None or latest.seq > last.seq):
                last = latest
        if events != dormancy.events_seen:
            assert last is not None
            query.book_skipped(last, events - dormancy.events_seen)
            dormancy.events_seen = events
        keyless = sum(index.keyless for index in dormancy.indexes)
        if keyless != dormancy.keyless_seen:
            query.matcher.stats.events_skipped_no_key += keyless - dormancy.keyless_seen
            dormancy.keyless_seen = keyless
        gate = dormancy.gate
        if gate.failed != dormancy.failed_seen:
            if query is not gate.leader:
                query.matcher.stats.shared_hits += gate.failed - dormancy.failed_seen
            dormancy.failed_seen = gate.failed

    def queries(self) -> list[Pipeline]:
        return list(self._queries)

    def interested_types(self) -> frozenset[str]:
        return frozenset(self._buckets)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterable[Pipeline]:
        return iter(self._queries)
