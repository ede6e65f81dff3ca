"""Event routing and shared multi-query execution state.

Two layers live here (see docs/SHARED_EXECUTION.md):

* :class:`EventRouter` — the type-indexed dispatch table from events to
  queries, so pushing an event touches only interested queries instead of
  broadcasting (the original lever behind the multi-query experiment E8).
* :class:`SharedExecutionIndex` — the cross-query sharing state that turns
  per-event serving cost from O(queries) toward O(distinct predicates):

  - a **shared predicate index** keyed by the alpha-invariant fingerprints
    computed in :mod:`repro.language.fingerprint`.  Every self-contained
    predicate (value depends only on the candidate event) registered by
    any query lands in one refcounted entry; per event, each distinct
    fingerprint is evaluated at most once and the boolean result is fanned
    out to every consulting query through a per-event memo.
  - an **NFA prefix intern pool**: queries compiled from a common pattern
    head reuse the same :class:`~repro.engine.nfa.Stage` objects for the
    shared prefix and fork only at the first divergent stage, which also
    lets the per-event *stage gate* (can this event start a run?) be
    memoized per shared stage object instead of per query.

  The router keeps both structures in sync with registration churn:
  :meth:`EventRouter.add` claims entries for a query,
  :meth:`EventRouter.remove` releases them and **fully prunes** entries
  whose last referencing query unregistered, so a serving fleet with
  register/unregister churn never accumulates stale index state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.events.event import Event
from repro.language.errors import EvaluationError
from repro.language.expressions import EvalContext, evaluate_predicate
from repro.runtime.query import RegisteredQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.matcher import MatcherStats
    from repro.engine.nfa import PatternAutomaton, Stage
    from repro.language.semantics import PredicateSpec


@dataclass
class _PredicateEntry:
    """One distinct predicate shared across registered queries."""

    #: Representative spec whose compiled evaluator serves all queries with
    #: this fingerprint (sound: equal fingerprints evaluate identically).
    spec: "PredicateSpec"
    owners: set[str] = field(default_factory=set)


@dataclass
class _PrefixEntry:
    """One interned automaton prefix state (a stage at a chain position)."""

    stage: "Stage"
    owners: set[str] = field(default_factory=set)


class SharedExecutionIndex:
    """Cross-query predicate index, prefix intern pool, and per-event memo.

    One instance is owned by each engine's router.  The per-event memo is
    (re)armed by :meth:`begin_event` at the top of the engine's dispatch
    and consulted by the matchers of every routed query, so a predicate
    fingerprint is evaluated at most once per event no matter how many
    queries anchor it.
    """

    def __init__(self) -> None:
        self._predicates: dict[str, _PredicateEntry] = {}
        self._prefixes: dict[str, _PrefixEntry] = {}
        #: event the memo tables below are valid for (identity-checked).
        self.current_event: Event | None = None
        self._memo: dict[str, tuple[bool, EvaluationError | None]] = {}
        self._gate_memo: dict[int, tuple[bool, int, EvaluationError | None]] = {}
        #: (stage id, stats id) pairs already charged a gate consultation
        #: for the current event — the quiescent fast path and the matcher
        #: may both consult the same gate for one event, but the per-query
        #: cost account must see exactly one consultation either way (that
        #: invariance is what keeps the accounts exact under sharding).
        self._gate_charged: set[tuple[int, int]] = set()
        #: predicate evaluations answered from the per-event memo.
        self.predicate_evals_saved = 0
        #: predicate evaluations actually performed through the index.
        self.predicate_evals_performed = 0
        #: stage slots answered from the intern pool instead of compiled anew.
        self.prefix_states_shared = 0
        #: routed (query, event) pairs skipped by the quiescent-gate fast path.
        self.events_gated = 0

    # -- introspection ----------------------------------------------------------

    @property
    def distinct_predicates(self) -> int:
        return len(self._predicates)

    @property
    def prefix_entries(self) -> int:
        return len(self._prefixes)

    def is_empty(self) -> bool:
        """True when no query holds any index or prefix entry (churn test)."""
        return not self._predicates and not self._prefixes

    def predicate_owners(self, fingerprint: str) -> frozenset[str]:
        entry = self._predicates.get(fingerprint)
        return frozenset(entry.owners) if entry is not None else frozenset()

    def prefix_owners(self, key: str) -> frozenset[str]:
        entry = self._prefixes.get(key)
        return frozenset(entry.owners) if entry is not None else frozenset()

    # -- registration lifecycle -------------------------------------------------

    def intern_stage(self, key: str, stage: "Stage") -> "Stage":
        """Return the canonical stage for ``key``, registering ``stage`` if new.

        Called by the compiler while building an automaton inside an
        engine that shares execution: equal keys mean the stages are
        interchangeable (same variable name, element type, and canonical
        predicate chain — and, through the chained key, an identical
        prefix), so later queries reuse the first query's stage object.
        """
        entry = self._prefixes.get(key)
        if entry is None:
            self._prefixes[key] = _PrefixEntry(stage=stage)
            return stage
        self.prefix_states_shared += 1
        return entry.stage

    def add_query(self, query: RegisteredQuery) -> None:
        """Claim predicate and prefix entries for a newly routed query."""
        name = query.name
        for spec in _shareable_specs(query.automaton):
            entry = self._predicates.get(spec.fingerprint)  # type: ignore[arg-type]
            if entry is None:
                self._predicates[spec.fingerprint] = _PredicateEntry(  # type: ignore[index]
                    spec=spec, owners={name}
                )
            else:
                entry.owners.add(name)
        for key in query.automaton.prefix_keys:
            entry = self._prefixes.get(key)
            if entry is not None:
                entry.owners.add(name)

    def remove_query(self, query: RegisteredQuery) -> None:
        """Release a query's entries; prune those it referenced last.

        Without the pruning, a serving fleet with registration churn would
        leak one index entry (and keep one compiled evaluator alive) per
        distinct predicate ever registered.
        """
        name = query.name
        for spec in _shareable_specs(query.automaton):
            entry = self._predicates.get(spec.fingerprint)  # type: ignore[arg-type]
            if entry is None:
                continue
            entry.owners.discard(name)
            if not entry.owners:
                del self._predicates[spec.fingerprint]  # type: ignore[arg-type]
        for key in query.automaton.prefix_keys:
            entry = self._prefixes.get(key)
            if entry is None:
                continue
            entry.owners.discard(name)
            if not entry.owners:
                del self._prefixes[key]

    # -- per-event evaluation ---------------------------------------------------

    def begin_event(self, event: Event) -> None:
        """Arm the per-event memo for ``event`` (engine dispatch calls this)."""
        self.current_event = event
        self._memo.clear()
        self._gate_memo.clear()
        self._gate_charged.clear()

    def predicate_holds(
        self, spec: "PredicateSpec", stats: "MatcherStats", lenient: bool
    ) -> bool:
        """Shared evaluation of one fingerprinted predicate for the current event.

        The boolean (or the raised :class:`EvaluationError`) is computed
        once per event per fingerprint; every consulting query applies its
        own error policy to the memoized outcome, so per-query error
        accounting matches independent execution.
        """
        result, error = self._outcome(spec, stats)
        if error is not None:
            if not lenient:
                raise error
            stats.evaluation_errors += 1
            return False
        return result

    def stage_gate(
        self, stage: "Stage", stats: "MatcherStats", lenient: bool
    ) -> bool:
        """Can the current event bind ``stage`` as a fresh run's first element?

        Equivalent to evaluating the stage's entry predicates against an
        empty context, but memoized twice over: per stage object (shared
        prefixes answer in one dict hit for every query reusing the stage)
        and per predicate fingerprint (differently-grouped stages still
        share individual predicate outcomes).  Predicates without a
        fingerprint disable the whole-stage memo but are still evaluated
        with identical semantics.

        Per-query hit/miss charging is deduplicated per event: the
        quiescent fast path and the matcher may both consult the same
        gate for one event (the probe primes the memo, the matcher then
        hits it), but quiescence is engine-local state — a sharded fleet
        wakes per shard — so the double consult must count once.  Each
        (stage, query) pair is charged exactly one consultation per
        event regardless of which path asked first, which is what keeps
        per-query cost accounts counter-exact across shard splits.
        """
        key = id(stage)
        charge_key = (key, id(stats))
        cached = self._gate_memo.get(key)
        if cached is not None:
            self.predicate_evals_saved += 1
            if charge_key not in self._gate_charged:
                self._gate_charged.add(charge_key)
                stats.shared_hits += 1
            result, errors, error = cached
            if errors:
                if not lenient:
                    raise error
                stats.evaluation_errors += errors
            return result

        predicates = (
            stage.incremental_predicates if stage.is_kleene else stage.bind_predicates
        )
        # The evaluating consult is charged through _outcome below (one
        # miss or memo hit per fingerprinted predicate); mark the pair so
        # a second consult for the same event does not charge again.
        self._gate_charged.add(charge_key)
        result = True
        errors = 0
        first_error: EvaluationError | None = None
        memoizable = True
        for spec in predicates:
            if spec.fingerprint is None:
                memoizable = False
                value, error = self._evaluate(spec)
            else:
                value, error = self._outcome(spec, stats)
            if error is not None:
                first_error = error
                errors += 1
                result = False
                break
            if not value:
                result = False
                break
        if memoizable:
            self._gate_memo[key] = (result, errors, first_error)
        if first_error is not None and not lenient:
            raise first_error
        stats.evaluation_errors += errors
        return result

    def _outcome(
        self, spec: "PredicateSpec", stats: "MatcherStats"
    ) -> tuple[bool, EvaluationError | None]:
        """Memoized raw outcome of one fingerprinted predicate.

        The hit/miss split is charged to the *consulting* query's stats —
        that per-query attribution is what the cost accounts read, so
        ``cepr top`` can show which queries ride the shared index and
        which pay for it.
        """
        fingerprint = spec.fingerprint
        assert fingerprint is not None
        cached = self._memo.get(fingerprint)
        if cached is not None:
            self.predicate_evals_saved += 1
            stats.shared_hits += 1
            return cached
        stats.shared_misses += 1
        entry = self._predicates.get(fingerprint)
        representative = entry.spec if entry is not None else spec
        outcome = self._evaluate(representative)
        self._memo[fingerprint] = outcome
        return outcome

    def _evaluate(
        self, spec: "PredicateSpec"
    ) -> tuple[bool, EvaluationError | None]:
        """Evaluate a self-contained predicate against the current event."""
        self.predicate_evals_performed += 1
        ctx = EvalContext(
            bindings={},
            current_var=spec.anchor_var,
            current_event=self.current_event,
        )
        try:
            return evaluate_predicate(spec.evaluator, ctx), None
        except EvaluationError as error:
            return False, error


def _shareable_specs(automaton: "PatternAutomaton") -> Iterator["PredicateSpec"]:
    """Every fingerprinted predicate an automaton anchors anywhere."""
    for stage in automaton.stages:
        for spec in stage.bind_predicates:
            if spec.fingerprint is not None:
                yield spec
        for spec in stage.incremental_predicates:
            if spec.fingerprint is not None:
                yield spec
    for negation in automaton.negations:
        for spec in negation.predicates:
            if spec.fingerprint is not None:
                yield spec


class EventRouter:
    """Type-indexed dispatch table from events to queries.

    When constructed with a :class:`SharedExecutionIndex` (the default
    inside :class:`~repro.runtime.engine.CEPREngine`), the router also
    keeps the shared predicate/prefix entries in sync with query
    registration and unregistration.
    """

    def __init__(self, shared: SharedExecutionIndex | None = None) -> None:
        self._by_type: dict[str, list[RegisteredQuery]] = {}
        self._queries: list[RegisteredQuery] = []
        self.shared = shared

    def add(self, query: RegisteredQuery) -> None:
        self._queries.append(query)
        for event_type in query.relevant_types:
            self._by_type.setdefault(event_type, []).append(query)
        if self.shared is not None:
            self.shared.add_query(query)

    def remove(self, query: RegisteredQuery) -> None:
        self._queries.remove(query)
        for event_type in query.relevant_types:
            bucket = self._by_type.get(event_type)
            if bucket is not None and query in bucket:
                bucket.remove(query)
                if not bucket:
                    del self._by_type[event_type]
        if self.shared is not None:
            self.shared.remove_query(query)

    def route(self, event: Event) -> list[RegisteredQuery]:
        """Queries interested in ``event``'s type (possibly empty)."""
        return self._by_type.get(event.event_type, [])

    def queries(self) -> list[RegisteredQuery]:
        return list(self._queries)

    def interested_types(self) -> frozenset[str]:
        return frozenset(self._by_type)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterable[RegisteredQuery]:
        return iter(self._queries)
