"""Partial-match runs.

A :class:`Run` is one partial match of the automaton: a prefix of stages
bound to concrete events.  Runs are **immutable tuples** — extending one
returns a new record sharing the old bindings — so the branching
strategies (``SKIP_TILL_ANY`` clones, Kleene take/proceed splits) share
structure instead of deep-copying, and a pruned or killed run simply drops
out of the partition's run list.

``Run`` is a :class:`~typing.NamedTuple`: the extensions below build it
positionally with ``tuple.__new__``, so no Python-level constructor runs
per extension, the hottest allocation in the engine.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from repro.engine.aggregates import AggregateState
from repro.engine.match import Match
from repro.engine.nfa import PatternAutomaton, Stage
from repro.events.event import Event
from repro.events.schema import Domain
from repro.language.ast_nodes import WindowKind
from repro.language.expressions import EvalContext
from repro.language.intervals import PartialMatchView

Binding = Event | tuple[Event, ...]

#: the aggregate states of a run that tracks none: one read-only mapping,
#: shared by every such run.
NO_AGGREGATES: Mapping[str, AggregateState] = MappingProxyType({})

_new = tuple.__new__


class Run(NamedTuple):
    """One partial match (immutable; see module docstring)."""

    automaton: PatternAutomaton
    #: Index of the stage currently being filled; ``len(stages)`` means the
    #: run has completed (runs in that state are converted to matches and
    #: never stored).
    stage: int
    bindings: Mapping[str, Binding]
    first_seq: int
    last_seq: int
    first_ts: float
    last_ts: float
    partition_key: tuple[Any, ...] = ()
    #: Whether the current stage is a Kleene variable that already holds at
    #: least one element (and may accept more).
    kleene_open: bool = False
    #: Running aggregates per Kleene variable.
    agg_states: Mapping[str, AggregateState] = NO_AGGREGATES
    #: Indices (into ``automaton.negations``) of negations provisionally
    #: violated while their preceding Kleene variable was still open; the
    #: trip clears if that variable later accepts a newer element, and
    #: blocks the run from binding the negation's closing stage otherwise.
    trips: frozenset[int] = frozenset()

    # -- window --------------------------------------------------------------

    def window_excludes(self, event: Event) -> bool:
        """Whether ``event`` falls outside this run's window (run is dead)."""
        window = self.automaton.window
        if window is None:
            return False
        if window.kind is WindowKind.COUNT:
            return event.seq - self.first_seq >= window.span
        return event.timestamp - self.first_ts > window.span

    # -- evaluation context ----------------------------------------------------

    def context(
        self, current_var: str | None = None, current_event: Event | None = None
    ) -> EvalContext:
        """Build an :class:`EvalContext` over this run's bindings."""
        return EvalContext(self.bindings, current_var, current_event, self._agg_lookup)

    def _agg_lookup(self, var: str, func: str, attr: str | None) -> Any:
        state = self.agg_states.get(var)
        if state is None:
            return None
        return state.lookup(func, attr)

    # -- extension (all return fresh Run records) -------------------------------

    def bind_singleton(self, stage: Stage, event: Event) -> Run:
        """Bind ``event`` to a singleton stage and move past it."""
        bindings = dict(self.bindings)
        bindings[stage.variable.name] = event
        return _new(
            Run,
            (
                self.automaton,
                stage.index + 1,
                bindings,
                self.first_seq,
                event.seq,
                self.first_ts,
                event.timestamp,
                self.partition_key,
                False,
                self.agg_states,
                self.trips,
            ),
        )

    def extend_kleene(self, stage: Stage, event: Event) -> Run:
        """Accept one more element into the current Kleene stage.

        Also clears any negation trips whose guard restarts when the Kleene
        variable accepts a newer element (see :attr:`trips`).
        """
        name = stage.variable.name
        bindings = dict(self.bindings)
        current = bindings.get(name, ())
        assert isinstance(current, tuple)
        bindings[name] = current + (event,)

        agg_states = self.agg_states
        state = agg_states.get(name)
        if state is not None:
            agg_states = {**agg_states, name: state.accept(event)}

        trips = self.trips
        if trips:
            cleared = {
                i
                for i in trips
                if self.automaton.negations[i].after == stage.index
            }
            if cleared:
                trips = trips - cleared

        return _new(
            Run,
            (
                self.automaton,
                self.stage,
                bindings,
                self.first_seq,
                event.seq,
                self.first_ts,
                event.timestamp,
                self.partition_key,
                True,
                agg_states,
                trips,
            ),
        )

    def close_kleene(self) -> Run:
        """Move past an open Kleene stage without consuming an event."""
        assert self.kleene_open
        return _new(
            Run,
            (
                self.automaton,
                self.stage + 1,
                self.bindings,
                self.first_seq,
                self.last_seq,
                self.first_ts,
                self.last_ts,
                self.partition_key,
                False,
                self.agg_states,
                self.trips,
            ),
        )

    def tripped(self, negation_index: int) -> Run:
        return self._replace(trips=self.trips | {negation_index})

    def blocked_by_trip(self, closing_stage_index: int) -> bool:
        """Whether a pending trip forbids binding stage ``closing_stage_index``."""
        trips = self.trips
        if not trips:
            return False
        negations = self.automaton.negations
        return any(negations[i].before == closing_stage_index for i in trips)

    # -- views -------------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self.stage >= len(self.automaton.stages)

    def current_duration(self) -> float:
        return self.last_ts - self.first_ts

    def to_match(self, detection_index: int, query_name: str | None = None) -> Match:
        """Snapshot this (complete) run as a :class:`Match`."""
        return Match(
            dict(self.bindings),
            self.first_seq,
            self.last_seq,
            self.first_ts,
            self.last_ts,
            self.partition_key,
            detection_index,
            None,
            query_name,
            (),
            self.agg_states,
        )

    def partial_view(
        self,
        domain_of: Callable[[str, str], Domain | None],
        latest_timestamp: float | None,
    ) -> PartialMatchView:
        """Expose this run to the interval evaluator for score bounding."""
        automaton = self.automaton
        open_vars: set[str] = set()
        if self.kleene_open:
            open_vars.add(automaton.stages[self.stage].variable.name)
        for stage in automaton.stages[self.stage + (1 if self.kleene_open else 0) :]:
            open_vars.add(stage.variable.name)

        window = automaton.window
        max_count: int | None = None
        max_duration: float | None = None
        if window is not None:
            if window.kind is WindowKind.COUNT:
                max_count = int(window.span)
            else:
                max_duration = window.span

        return PartialMatchView(
            bindings=self.bindings,
            var_types=automaton.var_types,
            kleene_vars=automaton.kleene_vars,
            open_vars=frozenset(open_vars),
            domain_of=domain_of,
            max_kleene_count=max_count,
            duration_so_far=self.current_duration(),
            max_duration=max_duration,
            latest_timestamp=latest_timestamp,
        )


def new_run(
    automaton: PatternAutomaton,
    first_event: Event,
    partition_key: tuple[Any, ...],
    tracked_attrs: Mapping[str, frozenset[str]],
) -> Run:
    """Create a run from its first bound event (stage 0).

    The caller has already checked stage-0 predicates.  For a Kleene first
    stage the run opens with one accepted element.
    """
    stage = automaton.stages[0]
    name = stage.variable.name
    kleene = stage.is_kleene
    agg_states: Mapping[str, AggregateState] = NO_AGGREGATES
    if tracked_attrs:
        states = {
            var: AggregateState.for_attrs(attrs)
            for var, attrs in tracked_attrs.items()
        }
        if kleene and name in states:
            states[name] = states[name].accept(first_event)
        agg_states = states
    seq = first_event.seq
    ts = first_event.timestamp
    return _new(
        Run,
        (
            automaton,
            0 if kleene else 1,
            {name: (first_event,) if kleene else first_event},
            seq,
            seq,
            ts,
            ts,
            partition_key,
            kleene,
            agg_states,
            frozenset(),
        ),
    )
